package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"time"

	"repro/internal/rtree"
)

// client is one load-generator connection.  The response body is read into
// a buffer the client reuses, and nothing is decoded until the latency
// timestamps have been taken, so client-side decode cost never sits inside a
// measured latency.
type client struct {
	hc   *http.Client
	base string
	buf  []byte
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, buf: make([]byte, 0, 1<<20)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange.  body aliases the client's buffer and is valid
// until the client's next request.
type reply struct {
	status int
	body   []byte
	// latency runs from start (the send time, or the due time in an open
	// loop) to the last body byte; ttfb from start to the first response
	// byte.
	latency, ttfb time.Duration
}

// do sends one request and reads the whole response.  start is the instant
// latencies are measured from; the zero value means "now".
func (c *client) do(method, path string, body []byte, start time.Time) (reply, error) {
	if start.IsZero() {
		start = time.Now()
	}
	var first time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	})
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf, err = readInto(c.buf[:0], resp.Body)
	done := time.Now()
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, body: c.buf, latency: done.Sub(start)}
	if !first.IsZero() {
		r.ttfb = first.Sub(start)
	}
	return r, nil
}

func (c *client) post(path string, body []byte, start time.Time) (reply, error) {
	return c.do(http.MethodPost, path, body, start)
}

// readInto appends r's content to buf, growing it only when it is full.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// requestBody is the POST /join body of each op type.
func requestBody(op opKind) []byte {
	switch op {
	case opJoin:
		return []byte(`{}`)
	case opCount:
		return []byte(`{"discard_pairs":true}`)
	case opWithin:
		return []byte(fmt.Sprintf(`{"predicate":"within:%g"}`, withinEps))
	case opKNN:
		return []byte(fmt.Sprintf(`{"predicate":"knn:%d"}`, knnK))
	}
	return nil
}

// updateBody encodes a batch of mutations as the POST /update body.
func updateBody(deletes, inserts []rtree.Item) []byte {
	type opWire struct {
		XL     float64 `json:"xl"`
		YL     float64 `json:"yl"`
		XU     float64 `json:"xu"`
		YU     float64 `json:"yu"`
		Data   int32   `json:"data"`
		Delete bool    `json:"delete,omitempty"`
	}
	ops := make([]opWire, 0, len(deletes)+len(inserts))
	for _, it := range deletes {
		ops = append(ops, opWire{it.Rect.XL, it.Rect.YL, it.Rect.XU, it.Rect.YU, it.Data, true})
	}
	for _, it := range inserts {
		ops = append(ops, opWire{it.Rect.XL, it.Rect.YL, it.Rect.XU, it.Rect.YU, it.Data, false})
	}
	b, err := json.Marshal(ops)
	if err != nil {
		panic(err) // finite floats and ints always encode
	}
	return b
}

// joinReply is what the benchmark reads out of a POST /join response, from
// a single daemon or from the router: the epoch (daemon only), the count
// field, the pair set's (count, hash) and the raw per-shard outcomes (router
// only).
type joinReply struct {
	epoch  uint64
	count  int
	pairs  answer
	shards []byte
}

// parseJoinReply scans a join response body.  It is a hand-written scanner
// rather than encoding/json because a full join's body is about 800 KB of
// integer pairs and the check runs once per request beside the system under
// test; only the pair array needs speed, the rest is skipped generically.
func parseJoinReply(b []byte) (joinReply, error) {
	var out joinReply
	s := scanner{b: b}
	if !s.consume('{') {
		return out, s.errorf("want '{'")
	}
	if s.consume('}') {
		return out, nil
	}
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return out, s.errorf("want a key and ':'")
		}
		switch key {
		case "epoch", "Epoch":
			v, ok := s.integer()
			if !ok {
				return out, s.errorf("epoch")
			}
			out.epoch = uint64(v)
		case "count":
			v, ok := s.integer()
			if !ok {
				return out, s.errorf("count")
			}
			out.count = int(v)
		case "pairs":
			if !s.pairArray(&out.pairs) {
				return out, s.errorf("pairs")
			}
		case "shards":
			from := s.skipSpace()
			if !s.skipValue() {
				return out, s.errorf("shards")
			}
			out.shards = b[from:s.i]
		default:
			if !s.skipValue() {
				return out, s.errorf("value of %q", key)
			}
		}
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			return out, nil
		}
		return out, s.errorf("want ',' or '}'")
	}
}

type scanner struct {
	b []byte
	i int
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("join reply, byte %d: %s", s.i, fmt.Sprintf(format, args...))
}

func (s *scanner) skipSpace() int {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
	return s.i
}

func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a JSON string without escapes (keys of the wire types have none).
func (s *scanner) str() (string, bool) {
	if !s.consume('"') {
		return "", false
	}
	from := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		if s.b[s.i] == '\\' {
			return "", false
		}
		s.i++
	}
	if s.i >= len(s.b) {
		return "", false
	}
	s.i++
	return string(s.b[from : s.i-1]), true
}

func (s *scanner) integer() (int64, bool) {
	s.skipSpace()
	neg := false
	if s.i < len(s.b) && s.b[s.i] == '-' {
		neg = true
		s.i++
	}
	from := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if s.i == from {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// pairArray reads [[r,s],...] (or null), folding every pair into a.
func (s *scanner) pairArray(a *answer) bool {
	s.skipSpace()
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !s.consume('[') {
			return false
		}
		r, ok1 := s.integer()
		if !s.consume(',') {
			return false
		}
		v, ok2 := s.integer()
		if !ok1 || !ok2 || !s.consume(']') {
			return false
		}
		a.count++
		a.hash += pairHash(int32(r), int32(v))
		if s.consume(',') {
			continue
		}
		return s.consume(']')
	}
}

// skipValue skips any JSON value: a string, a scalar, or an array or object
// of any depth.
func (s *scanner) skipValue() bool {
	s.skipSpace()
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		return s.skipString()
	case '[', '{':
		depth := 0
		for s.i < len(s.b) {
			switch s.b[s.i] {
			case '"':
				if !s.skipString() {
					return false
				}
				continue
			case '[', '{':
				depth++
			case ']', '}':
				depth--
			}
			s.i++
			if depth == 0 {
				return true
			}
		}
		return false
	default: // number, true, false, null
		from := s.i
		for s.i < len(s.b) && strings.IndexByte(",]} \n\t\r", s.b[s.i]) < 0 {
			s.i++
		}
		return s.i > from
	}
}

// skipString skips a JSON string, escapes included.
func (s *scanner) skipString() bool {
	s.i++ // the opening quote
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return true
		default:
			s.i++
		}
	}
	return false
}

// checkJoinReply verifies a 200 reply against the oracle's answer: the count
// field always, the pair set whenever the op returns pairs.
func checkJoinReply(op opKind, jr joinReply, want answer) error {
	if jr.count != want.count {
		return fmt.Errorf("count %d, oracle %d", jr.count, want.count)
	}
	if op == opCount {
		if jr.pairs.count != 0 {
			return errors.New("discard_pairs reply carries pairs")
		}
		return nil
	}
	if jr.pairs != want {
		return fmt.Errorf("pair set (%d, %#x), oracle (%d, %#x)", jr.pairs.count, jr.pairs.hash, want.count, want.hash)
	}
	return nil
}
