package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// gatewayJoinWire is the value the gateway's /join reply encodes, in field
// order; encoding/json over it is the reference the forwarded reply must
// match byte for byte.
type gatewayJoinWire struct {
	Pairs  [][2]int32     `json:"pairs,omitempty"`
	Count  int            `json:"count"`
	Shards []ShardOutcome `json:"shards"`
}

func referenceJoinReply(t *testing.T, res *JoinResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(gatewayJoinWire{Pairs: res.Pairs, Count: res.Count, Shards: res.Shards}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pairBytes is a shard stream's pair bytes, as the scanner hands them on:
// the elements of the pair array without its brackets.
func pairBytes(t *testing.T, pairs [][2]int32) []byte {
	t.Helper()
	if len(pairs) == 0 {
		return nil
	}
	arr, err := json.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return arr[1 : len(arr)-1]
}

// TestJoinReplyBytesAreEncodingJSONs drives the gateway's reply writer as
// the fan-out does — each shard's pair bytes in pieces, then the outcomes —
// and holds the reply to encoding/json's bytes for {Pairs, Count, Shards},
// with its Content-Length exactly when it fits one wire chunk.
func TestJoinReplyBytesAreEncodingJSONs(t *testing.T) {
	outcomes := []ShardOutcome{
		{Shard: "shard0@http://127.0.0.1:7461", Epoch: 3, Count: 2, Attempts: 1, Wall: 1500 * time.Microsecond},
		{Shard: "<b>&", Epoch: 4, Count: 0, Attempts: 2, Wall: time.Second},
	}
	var many [][2]int32
	for i := int32(0); i < 5000; i++ {
		many = append(many, [2]int32{i * 7919, -i})
	}
	for _, tc := range []struct {
		name    string
		streams [][][2]int32 // per shard
		shards  []ShardOutcome
	}{
		{"no shards", nil, nil},
		{"no pairs", [][][2]int32{nil, nil}, outcomes},
		{"first shard only", [][][2]int32{{{-1, 7}, {1 << 30, -5}}, nil}, outcomes},
		{"second shard only", [][][2]int32{nil, {{-1, 7}, {1 << 30, -5}}}, outcomes},
		{"both shards", [][][2]int32{{{-1, 7}}, {{1 << 30, -5}}}, outcomes},
		{"past one chunk", [][][2]int32{many[:3000], many[3000:]}, outcomes},
	} {
		for _, cut := range []int{1, 7, server.WireChunk} {
			rec := httptest.NewRecorder()
			rw := replyWriter{w: rec, shard: -1}
			res := &JoinResult{Shards: tc.shards}
			for i, stream := range tc.streams {
				res.Pairs = append(res.Pairs, stream...)
				for b := pairBytes(t, stream); len(b) > 0; b = b[min(cut, len(b)):] {
					if err := rw.pairs(i, b[:min(cut, len(b))]); err != nil {
						t.Fatal(err)
					}
				}
			}
			res.Count = len(res.Pairs)
			if err := rw.close(res.Shards, res.Count); err != nil {
				t.Fatal(err)
			}
			want := referenceJoinReply(t, res)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s, pieces of %d: reply %.200q, want %.200q", tc.name, cut, got, want)
			}
			cl := rec.Header().Get("Content-Length")
			if fits := len(want) <= server.WireChunk; fits != (cl == strconv.Itoa(len(want))) || !fits && cl != "" {
				t.Errorf("%s, pieces of %d: Content-Length %q for %d bytes", tc.name, cut, cl, len(want))
			}
		}
	}
}

// TestReplyWriterSendsAtAFullChunk: the gateway holds back less than one
// wire chunk, so the reply's first byte goes out as soon as the pair bytes
// fill one — with a shard's first chunk — and not one shard chunk later.
func TestReplyWriterSendsAtAFullChunk(t *testing.T) {
	pairs := make([][2]int32, 0, 5459)
	for len(pairs) < 5454 {
		pairs = append(pairs, [2]int32{1, 2})
	}
	for len(pairs) < 5459 {
		pairs = append(pairs, [2]int32{10, 2})
	}
	b := pairBytes(t, pairs)
	if n := len(`{"pairs":[`) + len(b); n != server.WireChunk {
		t.Fatalf("the reply's head is %d bytes, want exactly one chunk", n)
	}
	rec := httptest.NewRecorder()
	rw := replyWriter{w: rec, shard: -1}
	if err := rw.pairs(0, b[:len(b)-1]); err != nil || rw.sent {
		t.Fatalf("a chunk less one byte: sent %v, %v", rw.sent, err)
	}
	if err := rw.pairs(0, b[len(b)-1:]); err != nil || !rw.sent || rec.Body.Len() != server.WireChunk {
		t.Fatalf("a full chunk: sent %v, %d bytes out, %v", rw.sent, rec.Body.Len(), err)
	}
}

func postJSON(h http.Handler, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return w
}

// TestGatewayJoinOverDeployment drives NewHandler over real shards: the
// reply carries the oracle's pair set (sorted on the test side: the wire
// order is deterministic, not sorted) in Router.Join's order, declares its
// length exactly when it fits one wire chunk, and is the bytes
// encoding/json writes for {Pairs, Count, Shards} — the pairs first.
func TestGatewayJoinOverDeployment(t *testing.T) {
	rt, _ := newDeployment(t, 3, nil)
	rOps := genROps(300, 9)
	loadDeployment(t, rt, rOps)
	want := bruteForcePairs(rOps, genSItems(200, 5))
	h := NewHandler(rt)

	for _, body := range []string{``, `{"workers":3}`, `{"discard_pairs":true}`} {
		w := postJSON(h, "/join", body)
		if w.Code != http.StatusOK {
			t.Fatalf("join %s: %d %s", body, w.Code, w.Body)
		}
		raw := w.Body.Bytes()
		cl := w.Header().Get("Content-Length")
		if fits := len(raw) <= server.WireChunk; fits && cl != strconv.Itoa(len(raw)) || !fits && cl != "" {
			t.Errorf("join %s: Content-Length %q for %d bytes", body, cl, len(raw))
		}
		var reply gatewayJoinWire
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Count != len(want) || len(reply.Shards) != 3 {
			t.Fatalf("join %s: count %d over %d shards, want %d over 3", body, reply.Count, len(reply.Shards), len(want))
		}
		var req server.JoinRequestWire
		json.Unmarshal([]byte(body), &req)
		res, err := rt.Join(context.Background(), JoinRequest{Workers: req.Workers, DiscardPairs: req.DiscardPairs})
		if err != nil {
			t.Fatal(err)
		}
		if req.DiscardPairs {
			if reply.Pairs != nil {
				t.Fatalf("join %s: %d pairs in a discard reply", body, len(reply.Pairs))
			}
		} else {
			assertPairsEqual(t, "gateway "+body, sortedPairs(reply.Pairs), want)
			assertPairsEqual(t, "gateway vs Router.Join "+body, reply.Pairs, res.Pairs)
		}
		ref := referenceJoinReply(t, &JoinResult{Count: reply.Count, Pairs: reply.Pairs, Shards: reply.Shards})
		if !bytes.Equal(raw, ref) {
			t.Errorf("join %s: body differs from encoding/json's encoding of the same value", body)
		}
		wall := regexp.MustCompile(`"Wall":\d+`)
		if again := postJSON(h, "/join", body).Body.Bytes(); !bytes.Equal(wall.ReplaceAll(again, nil), wall.ReplaceAll(raw, nil)) {
			t.Errorf("join %s: a replay on the same epochs got different bytes", body)
		}
	}
}

// TestBadRequestsFailOnceAtTheRouter: a malformed predicate, a body naming
// a field the wire does not have (a join method among them: every shard runs
// SJ4) and an oversize body are the client's mistake — typed at Router.Join,
// 4xx at the gateway — and no shard ever sees them.
func TestBadRequestsFailOnceAtTheRouter(t *testing.T) {
	var hits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		okJoin(w)
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, `{"staged":0}`)
	})
	rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err = rt.Join(context.Background(), JoinRequest{Predicate: "within:-1"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Join(within:-1) = %v, want ErrBadRequest", err)
	}

	h := NewHandler(rt)
	for _, tc := range []struct {
		path, body string
		code       int
	}{
		{"/join", `{"method":4}`, http.StatusBadRequest},
		{"/join", `{"method":-1}`, http.StatusBadRequest},
		{"/join", `{"method":6}`, http.StatusBadRequest},
		{"/join", `{"workers":2,"world":[0,0,1,1]}`, http.StatusBadRequest},
		{"/update", `[{"xl":0.1,"yl":0.1,"xu":0.2,"yu":0.2,"data":7,"method":4}]`, http.StatusBadRequest},
		{"/join", `{"predicate":"nearest:3"}`, http.StatusBadRequest},
		{"/join", `{"method":`, http.StatusBadRequest},
		{"/join", `{"predicate":"` + strings.Repeat("a", server.MaxJoinBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"/update", `[` + strings.Repeat(" ", server.MaxUpdateBody), http.StatusRequestEntityTooLarge},
	} {
		w := postJSON(h, tc.path, tc.body)
		if w.Code != tc.code || !strings.HasPrefix(w.Body.String(), `{"error":`) {
			t.Errorf("%s with %.20q...: %d %.80s, want %d and an error object", tc.path, tc.body, w.Code, w.Body, tc.code)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("%d bad requests reached a shard", n)
	}
	if w := postJSON(h, "/join", `{"predicate":"knn:2"}`); w.Code != http.StatusOK || hits.Load() != 1 {
		t.Fatalf("valid join: %d %s after %d shard requests", w.Code, w.Body, hits.Load())
	}
}

// TestWriteRouterErrorMapping pins the gateway's status codes for the
// router's typed errors: every failed shard shedding is a 503 carrying the
// largest Retry-After (whole seconds, at least 1), any other partial fan-out
// a 502 naming the failed shards, a deadline a 504, a bad request a 400.
func TestWriteRouterErrorMapping(t *testing.T) {
	shed := func(name string, after time.Duration) *ShardError {
		return &ShardError{Shard: name, Err: fmt.Errorf("POST /join after 3 attempt(s): %w",
			&StatusError{Code: http.StatusServiceUnavailable, RetryAfter: after})}
	}
	broken := &ShardError{Shard: "c", Err: &StatusError{Code: http.StatusInternalServerError}}
	for _, tc := range []struct {
		name       string
		err        error
		code       int
		retryAfter string
		failed     []string
	}{
		{"all shedding", &PartialError{Failures: []*ShardError{shed("a", 3*time.Second), shed("b", 1500*time.Millisecond)}}, http.StatusServiceUnavailable, "3", []string{"a", "b"}},
		{"shedding under a second", &PartialError{Failures: []*ShardError{shed("a", 0)}, Succeeded: []string{"b"}}, http.StatusServiceUnavailable, "1", []string{"a"}},
		{"shed and broken", &PartialError{Failures: []*ShardError{shed("a", time.Second), broken}, Succeeded: []string{"b"}}, http.StatusBadGateway, "", []string{"a", "c"}},
		{"deadline", fmt.Errorf("POST /join: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "", nil},
		{"bad request", fmt.Errorf("%w: knn:0", ErrBadRequest), http.StatusBadRequest, "", nil},
		{"other", errors.New("boom"), http.StatusInternalServerError, "", nil},
	} {
		w := httptest.NewRecorder()
		writeRouterError(w, tc.err)
		var body struct {
			Error  string   `json:"error"`
			Failed []string `json:"failed"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("%s: body %s is not an error object", tc.name, w.Body)
		}
		if w.Code != tc.code || w.Header().Get("Retry-After") != tc.retryAfter || fmt.Sprint(body.Failed) != fmt.Sprint(tc.failed) {
			t.Errorf("%s: %d, Retry-After %q, failed %v; want %d, %q, %v",
				tc.name, w.Code, w.Header().Get("Retry-After"), body.Failed, tc.code, tc.retryAfter, tc.failed)
		}
	}
}
