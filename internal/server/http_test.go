package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
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

func decodeWire(t *testing.T, w *httptest.ResponseRecorder) JoinResponseWire {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("join: %d %s", w.Code, w.Body)
	}
	resp, err := scanJoinBody(w.Body.Bytes(), false, WireChunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Pairs) != resp.Count {
		t.Fatalf("count %d but %d pairs", resp.Count, len(resp.Pairs))
	}
	return resp
}

func sortedWire(pairs [][2]int32) [][2]int32 {
	out := append([][2]int32(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestHandlerSortsKNNPairs pins the one reply that stays sorted: the router
// checks kNN answers one R item at a time, so their pairs go out in
// ascending (R, S) order, the set join.Join finds.
func TestHandlerSortsKNNPairs(t *testing.T) {
	fx := newFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})
	resp := decodeWire(t, doHTTP(t, h, "POST", "/join", JoinRequestWire{Predicate: "knn:3"}))
	want, err := join.Join(fx.srv.cfg.Store.Tree(), fx.srv.cfg.S, join.Options{Method: join.SJ4, Predicate: join.NearestNeighbors(3)})
	if err != nil {
		t.Fatal(err)
	}
	join.SortPairs(want.Pairs)
	if resp.Count == 0 || !reflect.DeepEqual(resp.Pairs, wirePairs(want.Pairs)) {
		t.Fatalf("knn:3: %d pairs, not join.Join's %d in (R, S) order", resp.Count, want.Count)
	}
}

// TestHandlerStreamsTraversalOrder pins what the streamed wire promises: a
// sequential intersection or within-distance join's pairs in exactly the
// order join.Join's SJ4 returns them for the same snapshot.
func TestHandlerStreamsTraversalOrder(t *testing.T) {
	fx := newWideFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})
	for _, predicate := range []string{"intersects", "within:0.01"} {
		pred, err := join.ParsePredicate(predicate)
		if err != nil {
			t.Fatal(err)
		}
		resp := decodeWire(t, doHTTP(t, h, "POST", "/join", JoinRequestWire{Predicate: predicate}))
		want, err := join.Join(fx.srv.cfg.Store.Tree(), fx.srv.cfg.S, join.Options{Method: join.SJ4, Predicate: pred})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Pairs, wirePairs(want.Pairs)) {
			t.Errorf("%s: the wire's %d pairs are not join.Join's %d in its order", predicate, resp.Count, want.Count)
		}
	}
}

// firstWriteHook runs fn once the handler has written its first chunk.
type firstWriteHook struct {
	http.ResponseWriter
	once sync.Once
	fn   func()
}

func (h *firstWriteHook) Write(b []byte) (int, error) {
	n, err := h.ResponseWriter.Write(b)
	h.once.Do(h.fn)
	return n, err
}

// Unwrap lets http.ResponseController reach the connection, so the join's
// write deadline applies behind the hook as it does without one.
func (h *firstWriteHook) Unwrap() http.ResponseWriter { return h.ResponseWriter }

// TestHandlerAbortsFailedStreams: a join that fails before the handler has
// written anything keeps its status code, with an error body; one that
// fails after the first chunk went out — a storage fault, its deadline or
// a cancel — aborts the connection, so the client's read fails and what it
// did receive does not decode.  A failure is never a well-formed partial
// answer.  Only a storage fault that outlasts the retries breaks the server.
//
// The deadline that passes after the first chunk is a minute away, so it
// cannot pass before the first chunk however slowly the join runs; the
// hook expires it, ending the request's context as its deadline would.
func TestHandlerAbortsFailedStreams(t *testing.T) {
	dead := storage.FaultScript{ReadErrEvery: 1}
	faultOnFirst := func(fx *fixture, _ context.CancelFunc, _ func()) { fx.fs.SetScript(dead) }
	for _, tc := range []struct {
		name string
		// timeout is the request's deadline; negative means already expired.
		timeout time.Duration
		// before runs ahead of the request; onFirst once the first chunk
		// is written, with the request's cancel function and one that ends
		// its context as an expired deadline does.
		before  func(fx *fixture)
		onFirst func(fx *fixture, cancel context.CancelFunc, expire func())
		heal    bool // the retry backoff heals the disk
		code    int  // 0: the body must be aborted
		broken  bool // the server ends broken
	}{
		{name: "fault before the first byte", before: func(fx *fixture) { fx.fs.SetScript(dead) }, code: http.StatusServiceUnavailable, broken: true},
		{name: "expired before the first byte", timeout: -time.Second, code: http.StatusGatewayTimeout},
		{name: "transient fault after the first chunk", onFirst: faultOnFirst, heal: true},
		{name: "persistent fault after the first chunk", onFirst: faultOnFirst, broken: true},
		{name: "deadline after the first chunk", timeout: time.Minute, onFirst: func(_ *fixture, _ context.CancelFunc, expire func()) { expire() }},
		{name: "cancel after the first chunk", onFirst: func(_ *fixture, cancel context.CancelFunc, _ func()) { cancel() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fx *fixture
			fx = newStreamFixture(t, Config{DefaultDeadline: -1, Sleep: func(context.Context, time.Duration) {
				if tc.heal {
					fx.fs.SetScript(storage.FaultScript{})
				}
			}})
			h := NewHandler(fx.srv, HandlerConfig{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var ctx context.Context
				var cancel context.CancelFunc
				if tc.timeout != 0 {
					ctx, cancel = context.WithTimeout(r.Context(), tc.timeout)
				} else {
					ctx, cancel = context.WithCancel(r.Context())
				}
				defer cancel()
				ctx, expire := context.WithCancelCause(ctx)
				defer expire(nil)
				if tc.onFirst != nil {
					w = &firstWriteHook{ResponseWriter: w, fn: func() {
						tc.onFirst(fx, cancel, func() { expire(context.DeadlineExceeded) })
					}}
				}
				h.ServeHTTP(w, r.WithContext(ctx))
			}))
			defer ts.Close()
			if tc.before != nil {
				tc.before(fx)
			}
			resp, err := http.Post(ts.URL+"/join", "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, readErr := io.ReadAll(resp.Body)
			if fx.srv.Broken() != tc.broken {
				t.Fatalf("server broken %v, want %v", fx.srv.Broken(), tc.broken)
			}
			if tc.code != 0 {
				if resp.StatusCode != tc.code || readErr != nil || !bytes.HasPrefix(body, []byte(`{"error":`)) {
					t.Fatalf("status %d, read error %v, body %.80q: want %d and an error object", resp.StatusCode, readErr, body, tc.code)
				}
				return
			}
			if resp.StatusCode != http.StatusOK || readErr == nil {
				t.Fatalf("status %d, read error %v after %d bytes: want 200 and an aborted body", resp.StatusCode, readErr, len(body))
			}
			if len(body) < WireChunk {
				t.Fatalf("only %d bytes arrived before the abort, less than the first chunk", len(body))
			}
			if wire, err := scanJoinBody(body, false, WireChunk); err == nil {
				t.Fatalf("the %d bytes before the abort decode as a response with %d pairs", len(body), len(wire.Pairs))
			}
		})
	}
}

// staleDeadline reports a deadline its context does not keep: the request
// runs to the end, but its reply's first chunk is due after the deadline.
type staleDeadline struct {
	context.Context
	at time.Time
}

func (c staleDeadline) Deadline() (time.Time, bool) { return c.at, true }

// TestHandlerAnswers504WhenTheDeadlinePassesBeforeTheFirstChunk forces the
// order the deadline-after-the-first-chunk case must not be confused with:
// the deadline passes while the join runs, before its first chunk is due.
// Nothing is on the wire yet, so the answer is the typed 504 with an error
// body, not a status line whose first write fails.  The streamed join's
// chunks go out from the encoder's writer goroutine, the sorted kNN reply's
// from the handler after the join; both must hold back.
func TestHandlerAnswers504WhenTheDeadlinePassesBeforeTheFirstChunk(t *testing.T) {
	fx := newStreamFixture(t, Config{DefaultDeadline: -1})
	h := NewHandler(fx.srv, HandlerConfig{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(staleDeadline{Context: r.Context(), at: time.Now()}))
	}))
	defer ts.Close()
	for _, body := range []string{`{}`, `{"predicate":"knn:8"}`} {
		resp, err := http.Post(ts.URL+"/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout || readErr != nil || !bytes.HasPrefix(got, []byte(`{"error":`)) {
			t.Fatalf("%s: status %d, read error %v, body %.80q: want 504 and an error object", body, resp.StatusCode, readErr, got)
		}
	}
}

// TestHandlerRerunsUnsentStreams: a transient fault after the first pair
// but before the first chunk cut a stream that never left the handler's
// buffer, so the handler runs the join again and answers 200 with every pair
// and the cut attempt counted as a retry.  The fault is placed by a count of
// page reads, which lands between the first pair and the first chunk only
// when the join emits each leaf pair's pairs before its next read: at
// GOMAXPROCS=1, where it runs no helpers.  With helpers the reads run up to
// a ring of leaf pairs ahead of the emission, and the fifth read fails
// before any pair is out.
func TestHandlerRerunsUnsentStreams(t *testing.T) {
	var fx *fixture
	fx = newStreamFixture(t, Config{Sleep: func(context.Context, time.Duration) {
		fx.fs.SetScript(storage.FaultScript{})
	}})
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	h := NewHandler(fx.srv, HandlerConfig{})
	want := decodeWire(t, doHTTP(t, h, "POST", "/join", JoinRequestWire{}))

	// The join's fifth page read and every later one fail, until the
	// backoff heals the disk.
	fx.fs.SetScript(storage.FaultScript{ReadErrAfter: 4})
	resp := decodeWire(t, doHTTP(t, h, "POST", "/join", JoinRequestWire{}))
	if !reflect.DeepEqual(resp.Pairs, want.Pairs) || resp.Epoch != want.Epoch {
		t.Fatalf("the re-run sent %d pairs on epoch %d, want the clean join's %d on %d",
			resp.Count, resp.Epoch, want.Count, want.Epoch)
	}
	st := fx.srv.Snapshot()
	if resp.Retries != 1 || st.Failed != 1 || st.Done != 2 || st.Broken {
		t.Fatalf("retries %d, failed %d, done %d, broken %v: want the cut join failed once and re-run",
			resp.Retries, st.Failed, st.Done, st.Broken)
	}
}

// pipeListener serves connections made with dial over net.Pipe, whose
// writes block until the other end reads: a client that never reads stalls
// the server's first write that is not buffered.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestHandlerStalledClientReleasesJoin: a client that asks for a streamed
// join and never reads the body must not keep the join, its admission slot
// and its epoch past the join's deadline.  The blocked chunk write fails at
// the deadline, the join ends, and Close does not wait on it.
func TestHandlerStalledClientReleasesJoin(t *testing.T) {
	const deadline = 200 * time.Millisecond
	fx := newStreamFixture(t, Config{DefaultDeadline: deadline})
	ln := newPipeListener()
	hs := &http.Server{Handler: NewHandler(fx.srv, HandlerConfig{})}
	go hs.Serve(ln)
	defer hs.Close()
	conn := ln.dial()
	defer conn.Close()
	go io.WriteString(conn, "POST /join HTTP/1.1\r\nHost: shard\r\nContent-Length: 2\r\n\r\n{}")

	start := time.Now()
	for st := fx.srv.Snapshot(); st.Admitted == 0 || st.Inflight != 0; st = fx.srv.Snapshot() {
		if time.Since(start) > 20*deadline {
			t.Fatalf("after %v: admitted %d, inflight %d; the stalled write holds the join", time.Since(start), st.Admitted, st.Inflight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := fx.srv.Snapshot(); st.Done != 0 || st.Deadlined+st.Cancelled != 1 {
		t.Fatalf("done %d, deadlined %d, cancelled %d: want the join ended by its deadline", st.Done, st.Deadlined, st.Cancelled)
	}
	closed := make(chan struct{})
	go func() { fx.srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(20 * deadline):
		t.Fatal("Close is still waiting for the stalled join")
	}
}

// TestHandlerStatsCarriesCoverage checks that /stats publishes the snapshot
// coverage, including the shard range when configured.
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

// TestHandlerRejectsUnknownMethod: the server runs one join, so a body that
// still picks a method — or names any field the wire does not have — is the
// client's mistake (400 naming the field), not a silently different
// traversal order.  The same holds for /update.
func TestHandlerRejectsUnknownMethod(t *testing.T) {
	fx := newFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})
	for _, tc := range []struct {
		path, body string
		code       int
		field      string // the unknown field the 400 must name
	}{
		{"/join", `{"method":4}`, http.StatusBadRequest, "method"},
		{"/join", `{"method":0}`, http.StatusBadRequest, "method"},
		{"/join", `{"discard_pairs":true,"method":6}`, http.StatusBadRequest, "method"},
		{"/join", `{"buffer_bytes":65536}`, http.StatusBadRequest, "buffer_bytes"},
		{"/join", `{"workers":2}`, http.StatusBadRequest, "workers"},
		{"/join", `{"Discard_Pairs":true}`, http.StatusOK, ""}, // encoding/json matches field names case-insensitively
		{"/join", `{"discard_pairs":true}`, http.StatusOK, ""},
		{"/update", `[{"xl":0.1,"yl":0.1,"xu":0.2,"yu":0.2,"data":7,"world":1}]`, http.StatusBadRequest, "world"},
		{"/update", `[{"xl":0.1,"yl":0.1,"xu":0.2,"yu":0.2,"data":7}]`, http.StatusAccepted, ""},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		if w.Code != tc.code {
			t.Errorf("%s %s: %d %s, want %d", tc.path, tc.body, w.Code, w.Body, tc.code)
		}
		if tc.field == "" {
			continue
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, `unknown field "`+tc.field+`"`) {
			t.Errorf("%s %s: body %s, want an error naming field %q", tc.path, tc.body, w.Body, tc.field)
		}
	}
}

// FuzzJoinRequest drives arbitrary bodies through the shard's POST /join.
// Every body is answered 200, 400 or 413 — a bad request is the client's
// mistake, never a 500 or a panic — and every 200 decodes with the client
// codec, carrying all its pairs unless the body asked to discard them.  A
// 200 is only ever the answer to a body whose first value names no field
// the wire lacks.
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
		`{"method":4}`,
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
		// The handler decodes the first JSON value of the body the same way.
		var req JoinRequestWire
		if len(body) > 0 {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("body %q: 200 for a body the strict decoder rejects: %v", body, err)
			}
		}
		// The scanner checks the count against the pairs.
		if _, err := scanJoinBody(w.Body.Bytes(), req.DiscardPairs, WireChunk); err != nil {
			t.Fatalf("body %q: 200 response does not scan: %v", body, err)
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

// malformedProbe is the batch that showed the server accepting rectangles
// it cannot answer for: 3 000 ops with XL and XU swapped on every seventh
// (op 6 is the first).
func malformedProbe() []OpWire {
	rng := rand.New(rand.NewSource(16))
	ops := make([]OpWire, 3000)
	for i := range ops {
		x, y := rng.Float64()*0.98, rng.Float64()*0.98
		ops[i] = OpWire{XL: x, YL: y, XU: x + 0.01, YU: y + 0.01, Data: int32(5000 + i)}
		if i%7 == 6 {
			ops[i].XL, ops[i].XU = ops[i].XU, ops[i].XL
		}
	}
	return ops
}

// TestUpdateRejectsMalformedRectangles: a batch holding a rectangle with
// its corners out of order — or a NaN or infinite corner — is refused whole
// with a typed error naming the first such op, and nothing of it is staged;
// POST /update answers 400.  Before the check, the batch was staged and
// every later join over the tree was silently wrong.
func TestUpdateRejectsMalformedRectangles(t *testing.T) {
	fx := newFixture(t, Config{})
	probe := malformedProbe()
	ops := make([]Op, len(probe))
	for i, o := range probe {
		ops[i] = Op{Rect: o.Rect(), Data: o.Data}
	}
	var merr *MalformedOpError
	if err := fx.srv.Update(ops); !errors.As(err, &merr) || !errors.Is(err, ErrMalformedOp) || merr.Index != 6 {
		t.Fatalf("Update = %v, want a *MalformedOpError naming op 6", err)
	}
	for _, r := range []geom.Rect{{XL: math.NaN(), XU: 1, YU: 1}, {XU: 1, YU: math.Inf(1)}, {XU: 1, YL: 0.5, YU: 0.25}} {
		if err := fx.srv.Update([]Op{{Rect: geom.Rect{XU: 0.1, YU: 0.1}}, {Rect: r, Delete: true}}); !errors.As(err, &merr) || merr.Index != 1 {
			t.Errorf("Update with %v = %v, want a *MalformedOpError naming op 1", r, err)
		}
	}
	if n := fx.srv.Pending(); n != 0 {
		t.Fatalf("%d ops pending after rejected batches", n)
	}

	shard := zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}
	h := NewHandler(fx.srv, HandlerConfig{Shard: &shard})
	if w := doHTTP(t, h, "POST", "/update", probe); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "op 6") {
		t.Fatalf("POST /update of the probe: %d %s, want 400 naming op 6", w.Code, w.Body)
	}
	if n := fx.srv.Pending(); n != 0 {
		t.Fatalf("%d ops pending after a rejected /update", n)
	}
	if w := doHTTP(t, h, "POST", "/update", probe[:6]); w.Code != http.StatusAccepted || fx.srv.Pending() != 6 {
		t.Fatalf("POST /update of six well-formed ops: %d %s, %d pending", w.Code, w.Body, fx.srv.Pending())
	}
}

// TestUpdateCapsStagedBacklog: a batch that would take the ops staged since
// the last round past the cap is refused whole — ErrBacklogFull from
// Update, 503 with Retry-After from POST /update — and stages nothing.  Ops
// the insert buffer already applied to the writer's tree count until the
// round commits them; after it the same batch is taken.
func TestUpdateCapsStagedBacklog(t *testing.T) {
	fx := newFixture(t, Config{BatchCapacity: 4, stagedCap: 10})
	batch := func(n int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			x := 0.05 * float64(i)
			ops[i] = Op{Rect: geom.Rect{XL: x, YL: x, XU: x + 0.01, YU: x + 0.01}, Data: int32(5000 + i)}
		}
		return ops
	}
	if err := fx.srv.Update(batch(6)); err != nil {
		t.Fatal(err)
	}
	if err := fx.srv.Update(batch(5)); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("Update past the cap = %v, want ErrBacklogFull", err)
	}
	if n := fx.srv.Pending(); n != 6 {
		t.Fatalf("%d ops pending after a refused batch, want 6", n)
	}

	h := NewHandler(fx.srv, HandlerConfig{})
	wire := make([]OpWire, 5)
	for i, op := range batch(5) {
		wire[i] = OpWire{XL: op.Rect.XL, YL: op.Rect.YL, XU: op.Rect.XU, YU: op.Rect.YU, Data: op.Data}
	}
	w := doHTTP(t, h, "POST", "/update", wire)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" || !strings.Contains(w.Body.String(), "backlog") {
		t.Fatalf("POST /update past the cap: %d, Retry-After %q, %s; want 503, 1 and the backlog error", w.Code, w.Header().Get("Retry-After"), w.Body)
	}
	if n := fx.srv.Pending(); n != 6 {
		t.Fatalf("%d ops pending after a refused /update, want 6", n)
	}
	if err := fx.srv.Update(batch(4)); err != nil {
		t.Fatalf("a batch that reaches the cap exactly: %v", err)
	}
	if _, err := fx.srv.Round(); err != nil {
		t.Fatal(err)
	}
	if w := doHTTP(t, h, "POST", "/update", wire); w.Code != http.StatusAccepted || fx.srv.Pending() != 5 {
		t.Fatalf("POST /update after the round: %d %s, %d pending", w.Code, w.Body, fx.srv.Pending())
	}
}

// TestHandlerShardChecksOpsBeforeKeys: a sharded daemon checks every op of
// a batch well formed before it keys any, so a malformed op whose centre
// falls outside the shard gets the typed malformed-op 400, not a key-range
// one; a well-formed op outside the range still gets the key-range 400.
// Neither batch stages anything.
func TestHandlerShardChecksOpsBeforeKeys(t *testing.T) {
	fx := newFixture(t, Config{})
	inside := OpWire{XL: 0.1, YL: 0.1, XU: 0.12, YU: 0.12, Data: 7001}
	key := zorder.HilbertKey(inside.Rect().Center(), UnitWorld)
	shard := zorder.KeyRange{Lo: key, Hi: key + 1}
	h := NewHandler(fx.srv, HandlerConfig{Shard: &shard})

	// Corners swapped in x; the centre (0.85, 0.9) keys far from the shard.
	malformed := OpWire{XL: 0.9, YL: 0.88, XU: 0.8, YU: 0.92, Data: 7002}
	if k := zorder.HilbertKey(malformed.Rect().Center(), UnitWorld); shard.Contains(k) {
		t.Fatalf("the malformed op's centre keys inside the shard (%d)", k)
	}
	w := doHTTP(t, h, "POST", "/update", []OpWire{inside, malformed})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "op 1: rectangle") ||
		!strings.Contains(w.Body.String(), "not well formed") {
		t.Fatalf("POST /update with a malformed op outside the shard: %d %s, want the malformed-op 400 naming op 1", w.Code, w.Body)
	}
	if n := fx.srv.Pending(); n != 0 {
		t.Fatalf("%d ops pending after a rejected /update", n)
	}

	outside := OpWire{XL: 0.8, YL: 0.88, XU: 0.9, YU: 0.92, Data: 7003}
	w = doHTTP(t, h, "POST", "/update", []OpWire{inside, outside})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "outside shard range") {
		t.Fatalf("POST /update with an op outside the shard: %d %s, want the key-range 400", w.Code, w.Body)
	}
	if n := fx.srv.Pending(); n != 0 {
		t.Fatalf("%d ops pending after a rejected /update", n)
	}
	if w := doHTTP(t, h, "POST", "/update", []OpWire{inside}); w.Code != http.StatusAccepted || fx.srv.Pending() != 1 {
		t.Fatalf("POST /update of an op inside the shard: %d %s, %d pending", w.Code, w.Body, fx.srv.Pending())
	}
}

// applyOpWires is the model of an accepted /update batch: inserts add an
// entry, a delete removes one entry with exactly its rectangle and
// identifier if there is one.  Applying in staging order is enough, because
// the round applies a batch in an order that keeps an insert and a delete
// of the same entry in staging order (both key the same centre).
func applyOpWires(items []rtree.Item, ops []OpWire) []rtree.Item {
	out := append([]rtree.Item(nil), items...)
	for _, op := range ops {
		it := rtree.Item{Rect: op.Rect(), Data: op.Data}
		if !op.Delete {
			out = append(out, it)
			continue
		}
		for i := range out {
			if out[i] == it {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
	}
	return out
}

// FuzzUpdateRequest feeds arbitrary bodies to POST /update.  Every body is
// answered 202, 400 or 413; a rejected batch stages nothing, an accepted
// one stages every op DecodeOps reads from it; and after POST /round the
// daemon's join (SJ4) holds exactly the pairs a nested loop finds over the
// fixture's R with those ops applied.  The seeds are well-formed inserts and
// deletes of fixture entries, swapped corners, zero-area rectangles, huge
// finite and out-of-world coordinates, and bodies with unknown fields.
//
// One fixture serves every input: building it, its bulk loads and its first
// commit, cost more than the rest of a rejected input's check.  An accepted
// batch is undone by a second round, which restores R's items, though not
// the shape of its tree.
func FuzzUpdateRequest(f *testing.F) {
	fx := newFixture(f, Config{CostBudget: -1, DefaultDeadline: -1})
	h := NewHandler(fx.srv, HandlerConfig{})
	del := func(i int) OpWire {
		r := fx.rItems[i].Rect
		return OpWire{XL: r.XL, YL: r.YL, XU: r.XU, YU: r.YU, Data: fx.rItems[i].Data, Delete: true}
	}
	for _, ops := range [][]OpWire{
		{},
		{{XL: 0.1, YL: 0.2, XU: 0.13, YU: 0.21, Data: 9000}, {XL: 0.5, YL: 0.5, XU: 0.52, YU: 0.52, Data: 9001}},
		{del(0), del(17), {XL: 0.3, YL: 0.3, XU: 0.31, YU: 0.31, Data: 9002}},
		{del(3), del(3)},
		{{XL: 0.4, YL: 0.4, XU: 0.41, YU: 0.41, Data: 9003}, {XL: 0.4, YL: 0.4, XU: 0.41, YU: 0.41, Data: 9003, Delete: true}},
		{{XL: 0.4, YL: 0.4, XU: 0.3, YU: 0.41, Data: 9004}},
		{{XL: 0.6, YL: 0.7, XU: 0.6, YU: 0.7, Data: 9005}, {XL: 0.2, YL: 0.25, XU: 0.6, YU: 0.25, Data: 9006}},
		{{XL: -1e300, YL: -1e300, XU: 1e300, YU: 1e300, Data: 9007}},
		{{XL: 1.7e308, YL: 1.7e308, XU: 1.7e308, YU: 1.7e308, Data: 9008}},
		{{XL: -3, YL: 0.5, XU: -2.5, YU: 0.6, Data: 9009}, {XL: 0.95, YL: 0.95, XU: 1.4, YU: 1.2, Data: 9010}},
	} {
		body, err := json.Marshal(ops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, s := range []string{
		``,
		`null`,
		`{}`,
		`[{"xl":0.1,"yl":0.1,"xu":0.2,"yu":0.2,"data":1,"colour":3}]`,
		`[{"xl":0.1,"yl":0.1,"xu":0.2,"yu":0.2,"data":1}] [{"xl":0.9}]`,
		`[{"xl":1e400,"yl":0,"xu":1,"yu":1}]`,
		`[{"xl":0.1,"yl":0.1,"xu":0.2,"yu":0.2,"data":4294967296}]`,
		`[{"xl":0.2,"yl":0.1,"xu":0.1,"yu":0.2,"data":1,"delete":true}]`,
		`[{"xl":0.1,"yl":0.1,"xu":0.2,"yu":0.2`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/update", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if n := fx.srv.Pending(); n != 0 {
				t.Fatalf("body %q: %d ops pending after a %d", body, n, w.Code)
			}
			return
		default:
			t.Fatalf("body %q: status %d %s", body, w.Code, w.Body)
		}
		// The handler stages what DecodeOps reads, every op of it:
		// FuzzDecodeOps holds DecodeOps to encoding/json.
		ops, err := DecodeOps(body)
		if err != nil {
			t.Fatalf("body %q: 202 for a body DecodeOps rejects: %v", body, err)
		}
		if n := fx.srv.Pending(); n != len(ops) {
			t.Fatalf("body %q: %d ops pending, %d accepted", body, n, len(ops))
		}
		rItems := applyOpWires(fx.rItems, ops)

		if w := doHTTP(t, h, "POST", "/round", nil); w.Code != http.StatusOK {
			t.Fatalf("body %q: round %d %s", body, w.Code, w.Body)
		}
		w = doHTTP(t, h, "POST", "/join", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("body %q: join %d %s", body, w.Code, w.Body)
		}
		resp, err := scanJoinBody(w.Body.Bytes(), false, WireChunk)
		if err != nil {
			t.Fatal(err)
		}
		var want []join.Pair
		for _, r := range rItems {
			for _, s := range fx.sItems {
				if r.Rect.Intersects(s.Rect) {
					want = append(want, join.Pair{R: r.Data, S: s.Data})
				}
			}
		}
		got := make([]join.Pair, len(resp.Pairs))
		for i, p := range resp.Pairs {
			got[i] = join.Pair{R: p[0], S: p[1]}
		}
		join.SortPairs(got)
		join.SortPairs(want)
		if !slices.Equal(got, want) {
			t.Fatalf("body %q: join has %d pairs, nested loop %d", body, len(got), len(want))
		}

		if err := fx.srv.Update(opsBetween(rItems, fx.rItems)); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.srv.Round(); err != nil {
			t.Fatal(err)
		}
		if undo := opsBetween(fx.srv.cur.Load().tree.Items(), fx.rItems); len(undo) != 0 {
			t.Fatalf("body %q: undoing the batch left %d items off the fixture's R", body, len(undo))
		}
	})
}

// opsBetween returns the ops that take the multiset of items from to to: a
// delete for every item from holds more often than to, in from's order, then
// an insert for every item it holds less often, in to's.
func opsBetween(from, to []rtree.Item) []Op {
	excess := map[rtree.Item]int{}
	for _, it := range from {
		excess[it]++
	}
	for _, it := range to {
		excess[it]--
	}
	var ops []Op
	for _, it := range from {
		if excess[it] > 0 {
			excess[it]--
			ops = append(ops, Op{Rect: it.Rect, Data: it.Data, Delete: true})
		}
	}
	for _, it := range to {
		if excess[it] < 0 {
			excess[it]++
			ops = append(ops, Op{Rect: it.Rect, Data: it.Data})
		}
	}
	return ops
}
