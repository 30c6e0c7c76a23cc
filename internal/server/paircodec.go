package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/join"
)

// The pair codec.  A /join response is almost entirely integer pairs, and
// reflecting over them — encoding/json walking a [][2]int32 element by
// element — cost more than finding them.  This file is the one place that
// knows the response's bytes: a streaming encoder the shard handler writes
// with, the pair array the gateway appends, and a decoder the router reads
// shard bodies with.  It is a replacement for encoding/json on this path,
// not an alternative to it: the bytes are exactly
// json.NewEncoder(w).Encode(JoinResponseWire{...})'s, and the decoder hands
// anything but that canonical shape (plus whitespace) to json.Unmarshal, so
// it accepts and rejects what encoding/json does.

// wireChunk is how many bytes of a /join body the shard gathers before it
// writes them to the connection.  A body of at most one chunk goes out in
// one piece with its Content-Length; a larger one is sent as it is encoded,
// in chunks of exactly this size (chunked transfer).  Measured on the
// ledger's sharded workload (EXPERIMENTS.md, "Stream the pair answer").
const wireChunk = 32 << 10

// encoderPool recycles encoders and their chunk buffers.
var encoderPool = sync.Pool{New: func() any { return new(pairEncoder) }}

// pairEncoder writes one /join response body while the pairs are still
// arriving: pair appends one, close appends the fields that follow them and
// writes the rest.  Pairs come first so that the fields known only at the
// end of a join can follow them, and the bytes stay encoding/json's for the
// struct.
//
// A chunk is written from inside the traversal, so a client that stops
// reading must not hold the join there: from the first chunk on, writes
// carry the join's deadline, and a failed write cancels the join.
type pairEncoder struct {
	w     http.ResponseWriter
	chunk int
	buf   []byte
	pairs int
	// sent reports whether a chunk has been written, which commits the
	// response to 200 with no Content-Length.
	sent bool
	// deadline bounds every write once a chunk has gone out (zero: none);
	// cancel, if set, is called when a write fails.
	deadline time.Time
	cancel   context.CancelFunc
}

// newPairEncoder takes an encoder from the pool; release returns it.
func newPairEncoder(w http.ResponseWriter, chunk int) *pairEncoder {
	e := encoderPool.Get().(*pairEncoder)
	*e = pairEncoder{w: w, chunk: chunk, buf: e.buf[:0]}
	return e
}

func (e *pairEncoder) release() {
	e.w, e.cancel = nil, nil
	encoderPool.Put(e)
}

// reset drops the pairs buffered so far; it is only valid before a chunk
// has been written.
func (e *pairEncoder) reset() {
	e.buf, e.pairs = e.buf[:0], 0
}

// pair encodes one pair and writes every whole chunk buffered.
func (e *pairEncoder) pair(p join.Pair) {
	if e.pairs == 0 {
		e.buf = append(e.buf, `{"pairs":[`...)
	} else {
		e.buf = append(e.buf, ',')
	}
	e.pairs++
	e.buf = appendPair(e.buf, p.R, p.S)
	if len(e.buf) >= e.chunk {
		e.flush()
	}
}

// close appends the trailing fields of
// JoinResponseWire{pairs, epoch, count, retries} and the encoder's newline,
// then writes what is buffered: with its Content-Length when no chunk has
// gone out and it fits in one, else as the body's last chunks.  Like the
// struct's omitempty tags it leaves out a zero retries and an empty pairs.
func (e *pairEncoder) close(epoch uint64, count, retries int) {
	if e.pairs > 0 {
		e.buf = append(e.buf, `],"epoch":`...)
	} else {
		e.buf = append(e.buf, `{"epoch":`...)
	}
	e.buf = strconv.AppendUint(e.buf, epoch, 10)
	e.buf = append(e.buf, `,"count":`...)
	e.buf = strconv.AppendInt(e.buf, int64(count), 10)
	if retries != 0 {
		e.buf = append(e.buf, `,"retries":`...)
		e.buf = strconv.AppendInt(e.buf, int64(retries), 10)
	}
	e.buf = append(e.buf, '}', '\n')
	if !e.sent && len(e.buf) <= e.chunk {
		WriteJSONBytes(e.w, http.StatusOK, e.buf)
		return
	}
	e.flush()
	if len(e.buf) > 0 {
		e.send(e.buf)
	}
}

// flush writes every whole chunk buffered and keeps the remainder.
func (e *pairEncoder) flush() {
	n := 0
	for ; len(e.buf)-n >= e.chunk; n += e.chunk {
		e.send(e.buf[n : n+e.chunk])
	}
	e.buf = e.buf[:copy(e.buf, e.buf[n:])]
}

func (e *pairEncoder) send(b []byte) {
	if !e.sent {
		e.sent = true
		if !e.deadline.IsZero() {
			// A writer that cannot take a deadline (a test recorder, a
			// wrapper) writes without one.
			_ = http.NewResponseController(e.w).SetWriteDeadline(e.deadline)
		}
		e.w.Header().Set("Content-Type", "application/json")
		e.w.WriteHeader(http.StatusOK)
	}
	if _, err := e.w.Write(b); err != nil && e.cancel != nil {
		e.cancel()
	}
}

// AppendPairArray appends pairs as the JSON array [[r,s],...] — the bytes
// encoding/json produces for a non-nil [][2]int32.
func AppendPairArray(dst []byte, pairs [][2]int32) []byte {
	dst = append(dst, '[')
	for i, p := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPair(dst, p[0], p[1])
	}
	return append(dst, ']')
}

func appendPair(dst []byte, r, s int32) []byte {
	dst = append(dst, '[')
	dst = strconv.AppendInt(dst, int64(r), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(s), 10)
	return append(dst, ']')
}

// DecodeJoinResponse is json.Unmarshal(data, out) for a /join response
// body.  A body of the canonical shape is decoded in one pass without
// reflection; anything else — an unknown or repeated key, a null, a float,
// a leading zero, an out-of-range integer, a pair that is not two numbers,
// trailing bytes — is json.Unmarshal's to accept or reject.
func DecodeJoinResponse(data []byte, out *JoinResponseWire) error {
	if decodeJoinResponseFast(data, out) {
		return nil
	}
	return json.Unmarshal(data, out)
}

// decodeJoinResponseFast decodes the canonical shape and reports whether it
// did; on false *out is untouched.
func decodeJoinResponseFast(data []byte, out *JoinResponseWire) bool {
	d := pairDecoder{b: data}
	res := *out
	var seenEpoch, seenCount, seenRetries, seenPairs bool
	if !d.consume('{') {
		return false
	}
	if !d.consume('}') {
		for {
			key, ok := d.key()
			if !ok || !d.consume(':') {
				return false
			}
			switch string(key) {
			case "epoch":
				v, ok := d.uint()
				if !ok || seenEpoch {
					return false
				}
				seenEpoch, res.Epoch = true, v
			case "count":
				v, ok := d.int(math.MinInt, math.MaxInt)
				if !ok || seenCount {
					return false
				}
				seenCount, res.Count = true, int(v)
			case "retries":
				v, ok := d.int(math.MinInt, math.MaxInt)
				if !ok || seenRetries {
					return false
				}
				seenRetries, res.Retries = true, int(v)
			case "pairs":
				if seenPairs {
					return false
				}
				// The slice is sized by the count when it is plausible for
				// the bytes that remain — n pairs take at least 6n bytes,
				// `[0,0]` and a separator each — and by that bound
				// otherwise.  The shard sends count after the pairs, so it
				// is read from the body's end; sizing every slice by the
				// bound alone doubled the router's garbage per join.
				hint, c := (len(d.b)-d.i)/6, res.Count
				if !seenCount {
					c = trailingCount(d.b)
				}
				if c >= 0 && c < hint {
					hint = c
				}
				pairs, ok := d.pairs(hint)
				if !ok {
					return false
				}
				seenPairs, res.Pairs = true, pairs
			default:
				return false
			}
			if d.consume(',') {
				continue
			}
			if d.consume('}') {
				break
			}
			return false
		}
	}
	d.skipSpace()
	if d.i != len(d.b) {
		return false
	}
	*out = res
	return true
}

// trailingCount returns the N of the `"count":N` a /join body ends with —
// the encoder writes it within the last 64 bytes — or -1.  It is only a
// capacity hint: the decoder still checks every byte.
func trailingCount(b []byte) int {
	tail := b[max(0, len(b)-64):]
	i := bytes.LastIndex(tail, []byte(`"count":`))
	if i < 0 {
		return -1
	}
	n, digits := 0, 0
	for _, c := range tail[i+len(`"count":`):] {
		if c < '0' || c > '9' || digits == 18 {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	if digits == 0 {
		return -1
	}
	return n
}

// pairDecoder scans the canonical /join response grammar.  Every method
// reports false on input outside that grammar; the caller then falls back.
type pairDecoder struct {
	b []byte
	i int
}

func (d *pairDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *pairDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key reads an object key made of lower-case letters — all the wire's keys
// are — so escapes, and the case folding encoding/json matches keys with,
// never reach the fast path.
func (d *pairDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	from := d.i
	for d.i < len(d.b) && d.b[d.i] >= 'a' && d.b[d.i] <= 'z' {
		d.i++
	}
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	d.i++
	return d.b[from : d.i-1], true
}

// digits reads `0` or a run of digits without a leading zero, as a
// magnitude of at most limit, and requires that the JSON number ends there
// (no fraction, no exponent).
func (d *pairDecoder) digits(limit uint64) (uint64, bool) {
	b, from := d.b, d.i
	i, v := from, uint64(0)
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	d.i = i
	n := i - from
	if n > 18 {
		// The accumulator may have wrapped; strconv checks the range.
		var err error
		if v, err = strconv.ParseUint(string(b[from:i]), 10, 64); err != nil {
			return 0, false
		}
	}
	if n == 0 || v > limit || (n > 1 && b[from] == '0') {
		return 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	return v, true
}

func (d *pairDecoder) uint() (uint64, bool) {
	d.skipSpace()
	return d.digits(math.MaxUint64)
}

// int reads an integer in [lo, hi], lo < 0 <= hi.
func (d *pairDecoder) int(lo, hi int64) (int64, bool) {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
		v, ok := d.digits(-uint64(lo))
		return -int64(v), ok
	}
	v, ok := d.digits(uint64(hi))
	return int64(v), ok
}

// pairs reads [[r,s],...] into a non-nil slice, as encoding/json does for a
// present, non-null array.
func (d *pairDecoder) pairs(hint int) ([][2]int32, bool) {
	if !d.consume('[') {
		return nil, false
	}
	out := make([][2]int32, 0, hint)
	if d.consume(']') {
		return out, true
	}
	for {
		if !d.consume('[') {
			return nil, false
		}
		r, ok := d.int(math.MinInt32, math.MaxInt32)
		if !ok || !d.consume(',') {
			return nil, false
		}
		s, ok := d.int(math.MinInt32, math.MaxInt32)
		if !ok || !d.consume(']') {
			return nil, false
		}
		out = append(out, [2]int32{int32(r), int32(s)})
		if d.consume(',') {
			continue
		}
		if d.consume(']') {
			return out, true
		}
		return nil, false
	}
}
