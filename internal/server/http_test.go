package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/zorder"
)

func doHTTP(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, &buf))
	return w
}

// TestHandlerRetryAfterIsIntegerSeconds is the satellite regression for the
// RFC 9110 violation: a shed response's Retry-After must parse as a whole
// number of seconds (strconv.Atoi) and be at least 1.  The old %g formatting
// produced values like "0.0005", which conforming clients parse as 0 and
// retry immediately — the exact opposite of shedding.
func TestHandlerRetryAfterIsIntegerSeconds(t *testing.T) {
	fx := newFixture(t, Config{CostBudget: 1}) // 1ns: every join sheds
	h := NewHandler(fx.srv, HandlerConfig{})

	w := doHTTP(t, h, "POST", "/join", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed join: %d %s", w.Code, w.Body)
	}
	ra := w.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q does not parse as RFC 9110 integer seconds: %v", ra, err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", secs)
	}
}

// TestHandlerPairsAreSorted pins the wire contract the router's sorted merge
// depends on: /join responses carry their pairs in ascending (R, S) order,
// whatever worker split produced them.
func TestHandlerPairsAreSorted(t *testing.T) {
	fx := newFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})

	for _, workers := range []int{0, 4} {
		w := doHTTP(t, h, "POST", "/join", JoinRequestWire{Workers: workers})
		if w.Code != http.StatusOK {
			t.Fatalf("join (workers=%d): %d %s", workers, w.Code, w.Body)
		}
		var resp JoinResponseWire
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Count == 0 || len(resp.Pairs) != resp.Count {
			t.Fatalf("workers=%d: count=%d pairs=%d", workers, resp.Count, len(resp.Pairs))
		}
		for i := 1; i < len(resp.Pairs); i++ {
			a, b := resp.Pairs[i-1], resp.Pairs[i]
			if a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]) {
				t.Fatalf("workers=%d: pairs not in (R, S) order at %d: %v > %v", workers, i, a, b)
			}
		}
	}
}

// TestHandlerStatsCarriesCoverage checks that /stats publishes the snapshot
// coverage a router plans with, including the shard range when configured.
func TestHandlerStatsCarriesCoverage(t *testing.T) {
	fx := newFixture(t, Config{})
	shard := zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}
	h := NewHandler(fx.srv, HandlerConfig{Shard: &shard})

	w := doHTTP(t, h, "GET", "/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
	var stats StatsWire
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shard != shard.String() {
		t.Fatalf("shard = %q, want %q", stats.Shard, shard.String())
	}
	cov := stats.Coverage
	if cov.Epoch == 0 || cov.RItems != len(fx.rItems) || cov.SItems != len(fx.sItems) {
		t.Fatalf("coverage = %+v, want epoch > 0, R=%d, S=%d", cov, len(fx.rItems), len(fx.sItems))
	}
	if !cov.RCatalog.Valid() || !cov.SCatalog.Valid() {
		t.Fatalf("coverage catalogs invalid: %+v", cov)
	}
	if cov.RMBR.XU <= cov.RMBR.XL || cov.RMBR.YU <= cov.RMBR.YL {
		t.Fatalf("degenerate R MBR: %+v", cov.RMBR)
	}
}

// TestHandlerRejectsUnknownMethod is the regression for the unvalidated
// cast: a method number naming no algorithm is the client's mistake (400,
// typed message), not a 500 from deep inside the join.
func TestHandlerRejectsUnknownMethod(t *testing.T) {
	fx := newFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})
	for _, tc := range []struct {
		method int
		code   int
	}{
		{-1, http.StatusBadRequest},
		{0, http.StatusOK},
		{1, http.StatusOK},
		{5, http.StatusOK},
		{6, http.StatusBadRequest},
		{1 << 40, http.StatusBadRequest},
	} {
		w := doHTTP(t, h, "POST", "/join", map[string]any{"method": tc.method, "discard_pairs": true})
		if w.Code != tc.code {
			t.Errorf("method %d: %d %s, want %d", tc.method, w.Code, w.Body, tc.code)
		}
		if tc.code == http.StatusBadRequest {
			want := (&MethodError{Method: tc.method}).Error()
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error != want {
				t.Errorf("method %d: body %s, want error %q", tc.method, w.Body, want)
			}
		}
	}
}

// FuzzJoinRequest drives arbitrary bodies through the shard's POST /join.
// Every body is answered 200, 400 or 413 — a bad request is the client's
// mistake, never a 500 or a panic — and every 200 decodes with the client
// codec, carrying all its pairs unless the body asked to discard them.
func FuzzJoinRequest(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"method":-1}`,
		`{"method":0}`,
		`{"method":1}`,
		`{"method":5,"discard_pairs":true}`,
		`{"method":6}`,
		`{"method":1099511627776}`,
		`{"method":1.5}`,
		`{"predicate":"intersects"}`,
		`{"predicate":"within:0.01"}`,
		`{"predicate":"within:-1"}`,
		`{"predicate":"within:1e300"}`,
		`{"predicate":"knn:2","workers":4}`,
		`{"predicate":"knn:0"}`,
		`{"predicate":"knn:9223372036854775807"}`,
		`{"predicate":"bogus"}`,
		`{"workers":-3}`,
		`{"workers":4}`,
		`{"workers":1048576,"predicate":"within:0.05"}`,
		`{"discard_pairs":true} trailing`,
		`{"discard_pairs":true`,
		`[]`,
		`null`,
		`{"discard_pairs":true}` + strings.Repeat(" ", MaxJoinBody),
	} {
		f.Add([]byte(seed))
	}
	fx := newFixture(f, Config{CostBudget: -1, DefaultDeadline: -1})
	h := NewHandler(fx.srv, HandlerConfig{})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/join", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("body %q: status %d %s", body, w.Code, w.Body)
		}
		var resp JoinResponseWire
		if err := DecodeJoinResponse(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: 200 response does not decode: %v", body, err)
		}
		// The handler decodes the first JSON value of the body the same way.
		var req JoinRequestWire
		if len(body) > 0 {
			_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		}
		if !req.DiscardPairs && resp.Count != len(resp.Pairs) {
			t.Fatalf("body %q: count %d but %d pairs", body, resp.Count, len(resp.Pairs))
		}
	})
}

// TestHandlerCapsRequestBodies: a body past the endpoint's cap is answered
// 413 with the usual error object; one just under it is still read.
func TestHandlerCapsRequestBodies(t *testing.T) {
	fx := newFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})
	// JSON lets whitespace pad a body to any size without changing it.
	pad := func(body string, size int) []byte {
		return append([]byte(body), bytes.Repeat([]byte{' '}, size-len(body))...)
	}
	for _, tc := range []struct {
		path string
		body []byte
		code int
	}{
		{"/join", pad(`{"discard_pairs":true}`, MaxJoinBody), http.StatusOK},
		{"/join", pad(`{"discard_pairs":true`, MaxJoinBody+1), http.StatusRequestEntityTooLarge},
		{"/update", pad(`[]`, MaxUpdateBody), http.StatusAccepted},
		{"/update", pad(`[`, MaxUpdateBody+1), http.StatusRequestEntityTooLarge},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", tc.path, bytes.NewReader(tc.body)))
		if w.Code != tc.code {
			t.Errorf("%s with %d bytes: %d, want %d", tc.path, len(tc.body), w.Code, tc.code)
		}
		if tc.code == http.StatusRequestEntityTooLarge && !bytes.HasPrefix(w.Body.Bytes(), []byte(`{"error":`)) {
			t.Errorf("%s: 413 body %q is not an error object", tc.path, w.Body)
		}
	}
}
