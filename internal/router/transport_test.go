package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/zorder"
)

// The stub tests pin the retry and staleness policies against hand-rolled
// shard handlers, where every response code and header is scripted.

// stubShard serves h as a single shard owning the whole key space.
func stubShard(t *testing.T, h http.Handler) Shard {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return Shard{Name: "stub", URL: ts.URL, Range: zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}}
}

type sleepRecorder struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (s *sleepRecorder) sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.slept = append(s.slept, d)
	s.mu.Unlock()
	return ctx.Err()
}

func okJoin(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"pairs":[[1,2]],"epoch":1,"count":1}`+"\n")
}

// TestDoHonoursRetryAfterCapped: a shedding shard's Retry-After is obeyed
// — as RFC 9110 integer seconds — but capped at MaxRetryAfter, so one
// confused shard cannot stall the whole fan-out.
func TestDoHonoursRetryAfterCapped(t *testing.T) {
	var hits int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		okJoin(w)
	})

	rec := &sleepRecorder{}
	rt, err := New(Config{
		Shards:        []Shard{stubShard(t, mux)},
		RetryAttempts: 3,
		MaxRetryAfter: 500 * time.Millisecond,
		sleep:         rec.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Shards[0].Attempts)
	}
	if len(rec.slept) != 1 || rec.slept[0] != 500*time.Millisecond {
		t.Fatalf("slept %v, want exactly the 500ms cap (shard asked for 7s)", rec.slept)
	}
}

// TestDoBacksOffOn5xx: a 500 without Retry-After retries on the router's
// own doubling backoff.
func TestDoBacksOffOn5xx(t *testing.T) {
	var hits int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		okJoin(w)
	})

	rec := &sleepRecorder{}
	rt, err := New(Config{
		Shards:        []Shard{stubShard(t, mux)},
		RetryAttempts: 3,
		RetryBackoff:  3 * time.Millisecond,
		sleep:         rec.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Shards[0].Attempts)
	}
	want := []time.Duration{3 * time.Millisecond, 6 * time.Millisecond}
	if len(rec.slept) != len(want) || rec.slept[0] != want[0] || rec.slept[1] != want[1] {
		t.Fatalf("slept %v, want %v", rec.slept, want)
	}
}

// TestDoTreats4xxAsPermanent: client errors mean the request itself is
// wrong; retrying would hammer the shard with the same broken request.
func TestDoTreats4xxAsPermanent(t *testing.T) {
	var hits int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, `{"error":"no such method"}`, http.StatusBadRequest)
	})

	rec := &sleepRecorder{}
	rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 3, sleep: rec.sleep})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Join(context.Background(), JoinRequest{})
	if !errors.Is(err, ErrPartialFailure) {
		t.Fatalf("err = %v, want ErrPartialFailure", err)
	}
	if hits != 1 {
		t.Fatalf("4xx was retried: %d requests", hits)
	}
	if len(rec.slept) != 0 {
		t.Fatalf("4xx slept %v before giving up", rec.slept)
	}
}

// TestDoRejectsCountMismatch: a shard whose pairs are not as many as its
// count says is not speaking the protocol — count is the stream's own
// check, sent after the pairs — and the router treats it as a permanent
// shard failure instead of passing on a short or padded answer.
func TestDoRejectsCountMismatch(t *testing.T) {
	for _, body := range []string{
		`{"pairs":[[2,1]],"epoch":1,"count":2}`,
		`{"pairs":[[2,1],[1,2]],"epoch":1,"count":1}`,
		`{"epoch":1,"count":1}`,
	} {
		var hits atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, body)
		})

		rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 3, sleep: (&sleepRecorder{}).sleep})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Join(context.Background(), JoinRequest{})
		if !errors.Is(err, ErrPartialFailure) || res != nil || !strings.Contains(err.Error(), "protocol violation") {
			t.Errorf("%s: result %v, err %v; want a protocol violation and no pairs", body, res, err)
		}
		if n := hits.Load(); n != 1 {
			t.Errorf("%s: %d requests, want 1 (a protocol violation is permanent)", body, n)
		}
	}
}

// TestDoRejectsTruncatedBody: a shard that fails after its first chunk
// aborts the connection.  The router reads that as a failed attempt, retries
// it like a transport error, and when every attempt is cut short reports a
// *PartialError with no pairs — never the pairs that did arrive.
func TestDoRejectsTruncatedBody(t *testing.T) {
	var hits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"pairs":[[1,2],[3,4],`)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})

	rec := &sleepRecorder{}
	rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 3, sleep: rec.sleep})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Join(context.Background(), JoinRequest{})
	var perr *PartialError
	if !errors.As(err, &perr) || res != nil || !strings.Contains(err.Error(), "reading /join response") {
		t.Fatalf("result %v, err %v; want a *PartialError from the cut body and no pairs", res, err)
	}
	if n := hits.Load(); n != 3 || len(rec.slept) != 2 {
		t.Fatalf("%d requests and %d backoffs, want 3 and 2: a cut body is retried", n, len(rec.slept))
	}
}

// TestDoAcceptsOnlyCanonicalJoinBodies: the router reads a shard's body
// with the canonical-only scanner, so it takes the bytes a shard writes and
// nothing else — not even a body encoding/json would decode, in another key
// order, with whitespace or with a key spelt another way.  A body outside
// the grammar is a permanent "protocol violation": one request, no retry.
func TestDoAcceptsOnlyCanonicalJoinBodies(t *testing.T) {
	for _, tc := range []struct {
		body  string
		count int // -1: the body must be rejected
	}{
		{`{"pairs":[[1,2]],"epoch":2,"count":1}` + "\n", 1},
		{`{"pairs":[[1,2]],"epoch":2,"count":1,"retries":1}` + "\n", 1},
		{`{"epoch":2,"count":1,"pairs":[[1,2]]}` + "\n", -1},
		{"{ \"Epoch\": 2, \"count\": 1, \"extra\": [true], \"pairs\": [[1, 2]] }", -1},
		{`{"pairs":[[1,2]],"epoch":2,"count":1}`, -1},
		{`{"pairs":[[1,2147483648]],"epoch":2,"count":1}` + "\n", -1},
		{`{"pairs":[[01,2]],"epoch":2,"count":1}` + "\n", -1},
		{`{"epoch":2,"count":0}` + "\ntrailing", -1},
		{``, -1},
	} {
		var hits int
		mux := http.NewServeMux()
		mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
			hits++
			fmt.Fprint(w, tc.body)
		})
		rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 3, sleep: (&sleepRecorder{}).sleep})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Join(context.Background(), JoinRequest{})
		if tc.count >= 0 {
			if err != nil || res.Count != tc.count || len(res.Pairs) != tc.count || res.Shards[0].Epoch != 2 {
				t.Errorf("%q: result %+v, err %v", tc.body, res, err)
			}
			continue
		}
		if !errors.Is(err, ErrPartialFailure) || !strings.Contains(err.Error(), "protocol violation") {
			t.Errorf("%q: err = %v, want a protocol violation", tc.body, err)
		}
		if hits != 1 {
			t.Errorf("%q: %d requests, want 1 (a protocol violation is permanent)", tc.body, hits)
		}
	}
}

// TestJoinNeverCallsStats: routing is key-range only, so a shard whose
// GET /stats hangs costs a join nothing.  The stub's /stats blocks until the
// test ends and counts its hits; its /join answers at once.
func TestJoinNeverCallsStats(t *testing.T) {
	var statsHits atomic.Int32
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		statsHits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) { okJoin(w) })
	sh := stubShard(t, mux)
	t.Cleanup(func() { close(release) })

	rt, err := New(Config{Shards: []Shard{sh}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rt.Join(context.Background(), JoinRequest{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Join is still waiting after 5s: it blocks on the shard's /stats")
	}
	if n := statsHits.Load(); n != 0 {
		t.Fatalf("Join made %d GET /stats requests, want 0", n)
	}
}

// TestNewRejectsBadDeployments: gaps, overlaps and duplicate names are
// configuration errors New refuses outright — a gap loses updates, an
// overlap duplicates pairs.
func TestNewRejectsBadDeployments(t *testing.T) {
	half := zorder.KeySpace / 2
	cases := map[string]Config{
		"no shards": {},
		"gap": {Shards: []Shard{
			{URL: "http://a", Range: zorder.KeyRange{Lo: 0, Hi: half - 1}},
			{URL: "http://b", Range: zorder.KeyRange{Lo: half, Hi: zorder.KeySpace}},
		}},
		"overlap": {Shards: []Shard{
			{URL: "http://a", Range: zorder.KeyRange{Lo: 0, Hi: half + 1}},
			{URL: "http://b", Range: zorder.KeyRange{Lo: half, Hi: zorder.KeySpace}},
		}},
		"short": {Shards: []Shard{
			{URL: "http://a", Range: zorder.KeyRange{Lo: 0, Hi: half}},
		}},
		"duplicate name": {Shards: []Shard{
			{Name: "x", URL: "http://a", Range: zorder.KeyRange{Lo: 0, Hi: half}},
			{Name: "x", URL: "http://b", Range: zorder.KeyRange{Lo: half, Hi: zorder.KeySpace}},
		}},
		"missing URL": {Shards: []Shard{
			{Range: zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}},
		}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted a broken deployment", name)
		}
	}
}
