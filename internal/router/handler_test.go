package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// gatewayJoinWire is the struct the gateway encoded its /join reply from
// before the pair codec; encoding/json over it is the reference the
// hand-assembled reply must match byte for byte.
type gatewayJoinWire struct {
	Count  int            `json:"count"`
	Pairs  [][2]int32     `json:"pairs,omitempty"`
	Shards []ShardOutcome `json:"shards"`
}

func referenceJoinReply(t *testing.T, res *JoinResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(gatewayJoinWire{Count: res.Count, Pairs: res.Pairs, Shards: res.Shards}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJoinReplyBytesAreEncodingJSONs(t *testing.T) {
	outcomes := []ShardOutcome{
		{Shard: "shard0@http://127.0.0.1:7461", Epoch: 3, Count: 2, Attempts: 1, Wall: 1500 * time.Microsecond},
		{Shard: "<b>&", Epoch: 4, Count: 0, Attempts: 2, Wall: time.Second},
	}
	for _, res := range []*JoinResult{
		{},
		{Shards: []ShardOutcome{}},
		{Count: 2, Shards: outcomes},
		{Count: 2, Pairs: [][2]int32{}, Shards: outcomes},
		{Count: 2, Pairs: [][2]int32{{-1, 7}, {1 << 30, -5}}, Shards: outcomes},
	} {
		got, err := appendJoinReply(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceJoinReply(t, res); !bytes.Equal(got, want) {
			t.Errorf("reply %q, want %q", got, want)
		}
	}
}

func postJSON(h http.Handler, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return w
}

// TestGatewayJoinOverDeployment drives NewHandler over real shards: the
// reply carries the oracle's pair set (sorted on the test side: the wire
// order is deterministic, not sorted), declares its length, and is the
// bytes encoding/json writes for the value it decodes to.
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
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
			t.Errorf("join %s: Content-Length %q for %d bytes", body, cl, len(raw))
		}
		var reply gatewayJoinWire
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Count != len(want) || len(reply.Shards) != 3 {
			t.Fatalf("join %s: count %d over %d shards, want %d over 3", body, reply.Count, len(reply.Shards), len(want))
		}
		if strings.Contains(body, "discard") {
			if reply.Pairs != nil {
				t.Fatalf("join %s: %d pairs in a discard reply", body, len(reply.Pairs))
			}
		} else {
			assertPairsEqual(t, "gateway "+body, sortedPairs(reply.Pairs), want)
		}
		ref := referenceJoinReply(t, &JoinResult{Count: reply.Count, Pairs: reply.Pairs, Shards: reply.Shards})
		if !bytes.Equal(raw, ref) {
			t.Errorf("join %s: body differs from encoding/json's encoding of the same value", body)
		}
	}
}

// TestBadRequestsFailOnceAtTheRouter: a malformed predicate, an unknown
// method and an oversize body are the client's mistake — typed at
// Router.Join, 4xx at the gateway — and no shard ever sees them.
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
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{}`) })
	rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}

	_, err = rt.Join(context.Background(), JoinRequest{Method: 6})
	var merr *server.MethodError
	if !errors.Is(err, ErrBadRequest) || !errors.As(err, &merr) || merr.Method != 6 {
		t.Fatalf("Join(method 6) = %v, want ErrBadRequest wrapping *server.MethodError", err)
	}
	if _, err = rt.Join(context.Background(), JoinRequest{Predicate: "within:-1"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Join(within:-1) = %v, want ErrBadRequest", err)
	}

	h := NewHandler(rt)
	for _, tc := range []struct {
		path, body string
		code       int
	}{
		{"/join", `{"method":-1}`, http.StatusBadRequest},
		{"/join", `{"method":6}`, http.StatusBadRequest},
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
	if w := postJSON(h, "/join", `{"method":5}`); w.Code != http.StatusOK || hits.Load() != 1 {
		t.Fatalf("valid join: %d %s after %d shard requests", w.Code, w.Body, hits.Load())
	}
}
