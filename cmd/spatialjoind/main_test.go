package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// newTestHandler mounts the daemon's HTTP surface exactly as run() does.
func newTestHandler(srv *server.Server) http.Handler {
	return server.NewHandler(srv, server.HandlerConfig{})
}

func newTestDaemon(t *testing.T) http.Handler {
	t.Helper()
	cfg := daemonConfig{
		db:       "r.db",
		pageSize: storage.PageSize1K,
		sItems:   200,
		sSide:    0.02,
		seed:     42,
	}
	srv, closeStorage, err := buildServer(storage.NewMemVFS(), cfg)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		closeStorage()
	})
	return newTestHandler(srv)
}

// newShardedDaemon builds a daemon that owns only the given Hilbert range.
func newShardedDaemon(t *testing.T, shard zorder.KeyRange) http.Handler {
	t.Helper()
	cfg := daemonConfig{
		db:       "r.db",
		pageSize: storage.PageSize1K,
		sItems:   200,
		sSide:    0.02,
		seed:     42,
		shard:    &shard,
	}
	srv, closeStorage, err := buildServer(storage.NewMemVFS(), cfg)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		closeStorage()
	})
	return server.NewHandler(srv, server.HandlerConfig{Shard: cfg.shard})
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestDaemonUpdateRoundJoin drives the full HTTP surface: stage inserts,
// observe they are invisible until a round, then join and read them back.
func TestDaemonUpdateRoundJoin(t *testing.T) {
	h := newTestDaemon(t)

	// Joining the empty relation returns no pairs.
	w := doJSON(t, h, "POST", "/join", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("join on empty: %d %s", w.Code, w.Body)
	}
	var empty server.JoinResponseWire
	if err := json.Unmarshal(w.Body.Bytes(), &empty); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if empty.Count != 0 {
		t.Fatalf("empty relation produced %d pairs", empty.Count)
	}

	// Stage rectangles covering the whole unit square: every S item matches.
	ops := []server.OpWire{}
	for i := 0; i < 4; i++ {
		ops = append(ops, server.OpWire{XL: 0, YL: 0, XU: 1.1, YU: 1.1, Data: int32(i)})
	}
	w = doJSON(t, h, "POST", "/update", ops)
	if w.Code != http.StatusAccepted {
		t.Fatalf("update: %d %s", w.Code, w.Body)
	}

	// Still invisible: no round has run.
	w = doJSON(t, h, "POST", "/join", nil)
	var before server.JoinResponseWire
	json.Unmarshal(w.Body.Bytes(), &before)
	if before.Count != 0 {
		t.Fatalf("staged ops visible before round: %d pairs", before.Count)
	}

	w = doJSON(t, h, "POST", "/round", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("round: %d %s", w.Code, w.Body)
	}

	w = doJSON(t, h, "POST", "/join", server.JoinRequestWire{})
	if w.Code != http.StatusOK {
		t.Fatalf("join: %d %s", w.Code, w.Body)
	}
	var after server.JoinResponseWire
	if err := json.Unmarshal(w.Body.Bytes(), &after); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if want := 4 * 200; after.Count != want {
		t.Fatalf("join count = %d, want %d", after.Count, want)
	}
	if len(after.Pairs) != after.Count {
		t.Fatalf("pairs materialised %d, count %d", len(after.Pairs), after.Count)
	}
	if after.Epoch <= empty.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", empty.Epoch, after.Epoch)
	}

	// DiscardPairs suppresses the pair payload but keeps the count.
	w = doJSON(t, h, "POST", "/join", server.JoinRequestWire{DiscardPairs: true})
	var discard server.JoinResponseWire
	json.Unmarshal(w.Body.Bytes(), &discard)
	if discard.Count != after.Count || len(discard.Pairs) != 0 {
		t.Fatalf("discard_pairs: count=%d pairs=%d", discard.Count, len(discard.Pairs))
	}
}

// TestDaemonStatsAndErrors exercises /stats and the error mapping of the
// remaining surface.
func TestDaemonStatsAndErrors(t *testing.T) {
	h := newTestDaemon(t)

	w := doJSON(t, h, "GET", "/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
	var stats map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}

	// Malformed update body.
	req := httptest.NewRequest("POST", "/update", bytes.NewBufferString("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed update: %d", rec.Code)
	}

	// Deletes round-trip: insert then delete the same rect, count returns
	// to zero.
	rect := server.OpWire{XL: 0, YL: 0, XU: 1.1, YU: 1.1, Data: 7}
	doJSON(t, h, "POST", "/update", []server.OpWire{rect})
	doJSON(t, h, "POST", "/round", nil)
	del := rect
	del.Delete = true
	doJSON(t, h, "POST", "/update", []server.OpWire{del})
	doJSON(t, h, "POST", "/round", nil)
	w = doJSON(t, h, "POST", "/join", nil)
	var resp server.JoinResponseWire
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Count != 0 {
		t.Fatalf("after insert+delete, join count = %d, want 0", resp.Count)
	}
}

// TestDaemonShedMapsToRetryAfter forces cost-based shedding and checks the
// 503 + Retry-After mapping.
func TestDaemonShedMapsToRetryAfter(t *testing.T) {
	cfg := daemonConfig{
		db:         "r.db",
		pageSize:   storage.PageSize1K,
		sItems:     200,
		sSide:      0.02,
		seed:       42,
		costBudget: 1, // 1ns: every request exceeds the budget
	}
	srv, closeStorage, err := buildServer(storage.NewMemVFS(), cfg)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		closeStorage()
	})
	h := newTestHandler(srv)

	w := doJSON(t, h, "POST", "/join", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed request: %d %s", w.Code, w.Body)
	}
	ra := w.Header().Get("Retry-After")
	if ra == "" {
		t.Fatalf("shed response missing Retry-After")
	}
	// RFC 9110 requires whole seconds.  The header used to be formatted with
	// %g ("0.0005"), which integer-parsing clients read as 0 — an invitation
	// to hammer a server that just asked for breathing room.
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an RFC 9110 integer: %v", ra, err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After = %d, want at least 1 second", secs)
	}
}

// TestDaemonShardRejectsForeignUpdates pins the -shard contract: an op whose
// centre keys outside the owned Hilbert range is rejected with 400 before
// anything is staged, and in-range ops are accepted.
func TestDaemonShardRejectsForeignUpdates(t *testing.T) {
	// Owned half of the key space, probed with ops on either side of the cut.
	half := zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace / 2}
	h := newShardedDaemon(t, half)

	inRect := server.OpWire{XL: 0.1, YL: 0.1, XU: 0.12, YU: 0.12, Data: 1}
	outRect := server.OpWire{XL: 0.9, YL: 0.9, XU: 0.92, YU: 0.92, Data: 2}
	keyOf := func(op server.OpWire) uint64 {
		return zorder.HilbertKey(op.Rect().Center(), server.UnitWorld)
	}
	if !half.Contains(keyOf(inRect)) || half.Contains(keyOf(outRect)) {
		t.Fatalf("test rectangles landed on the wrong sides of the shard cut")
	}

	if w := doJSON(t, h, "POST", "/update", []server.OpWire{inRect}); w.Code != http.StatusAccepted {
		t.Fatalf("in-range update: %d %s", w.Code, w.Body)
	}
	if w := doJSON(t, h, "POST", "/update", []server.OpWire{inRect, outRect}); w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range update: %d %s", w.Code, w.Body)
	}

	// /stats advertises the owned range so a router can learn the layout.
	w := doJSON(t, h, "GET", "/stats", nil)
	var stats server.StatsWire
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if stats.Shard != half.String() {
		t.Fatalf("stats shard = %q, want %q", stats.Shard, half.String())
	}
}

// TestParseShardFlag checks the -shard flag round trip and rejection.
func TestParseShardFlag(t *testing.T) {
	cfg, err := parseFlags([]string{"-shard", "0:100"})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if cfg.shard == nil || *cfg.shard != (zorder.KeyRange{Lo: 0, Hi: 100}) {
		t.Fatalf("shard = %v, want 0:100", cfg.shard)
	}
	if cfg, err := parseFlags(nil); err != nil || cfg.shard != nil {
		t.Fatalf("default shard = %v (err %v), want nil", cfg.shard, err)
	}
	if _, err := parseFlags([]string{"-shard", "5:4"}); err == nil {
		t.Fatal("parseFlags accepted an empty shard range")
	}
}

// TestPprofIsOptInAndApart: -pprof is off by default, and the profiles are
// served by their own handler, never by the join surface.
func TestPprofIsOptInAndApart(t *testing.T) {
	if cfg, err := parseFlags(nil); err != nil || cfg.pprofAddr != "" {
		t.Fatalf("default pprof address %q (err %v), want none", cfg.pprofAddr, err)
	}
	cfg, err := parseFlags([]string{"-pprof", "127.0.0.1:6060"})
	if err != nil || cfg.pprofAddr != "127.0.0.1:6060" {
		t.Fatalf("pprof address %q (err %v)", cfg.pprofAddr, err)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		w := httptest.NewRecorder()
		pprofHandler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("pprof %s: %d", path, w.Code)
		}
	}
	if w := doJSON(t, newTestDaemon(t), "GET", "/debug/pprof/", nil); w.Code == http.StatusOK {
		t.Fatal("the join surface serves the profiles")
	}
}

// TestDaemonRunServesPprof starts the daemon with -pprof on a free port and
// reads a profile index from it.
func TestDaemonRunServesPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0", "-db", filepath.Join(t.TempDir(), "r.db"),
			"-s-items", "100", "-round", "0"}, out)
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if m := regexp.MustCompile(`profiles on (http://\S+)`).FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no pprof address logged: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", addr, resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestDaemonBoundsHeaderReads: a client that sends half a request line
// and nothing more is hung up on once -deadline has passed, on the join
// listener and on the -pprof one, instead of holding a connection and a
// goroutine for good.
func TestDaemonBoundsHeaderReads(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0", "-db", filepath.Join(t.TempDir(), "r.db"),
			"-s-items", "100", "-round", "0", "-deadline", "200ms"}, out)
	}()
	var addrs []string
	for deadline := time.Now().Add(10 * time.Second); addrs == nil; time.Sleep(10 * time.Millisecond) {
		join := regexp.MustCompile(`serving on (\S+)`).FindStringSubmatch(out.String())
		prof := regexp.MustCompile(`profiles on http://([^/\s]+)`).FindStringSubmatch(out.String())
		if join != nil && prof != nil {
			addrs = []string{join[1], prof[1]}
		} else if time.Now().After(deadline) {
			t.Fatalf("no listen addresses logged: %q", out.String())
		}
	}
	for _, addr := range addrs {
		checkHalfHeaderClosed(t, addr)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// checkHalfHeaderClosed sends half a request line to addr and requires the
// server to close the connection within a second.
func checkHalfHeaderClosed(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /jo"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(time.Second))
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s: the connection is still open %v after half a request line", addr, time.Since(start))
	}
}

// syncBuffer is a bytes.Buffer the daemon's logger and the test can share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonPersistsAcrossRestart commits via the HTTP surface, tears the
// daemon down, rebuilds it on the same VFS and checks the data survived.
func TestDaemonPersistsAcrossRestart(t *testing.T) {
	vfs := storage.NewMemVFS()
	cfg := daemonConfig{db: "r.db", pageSize: storage.PageSize1K, sItems: 200, sSide: 0.02, seed: 42}

	srv, closeStorage, err := buildServer(vfs, cfg)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	h := newTestHandler(srv)
	doJSON(t, h, "POST", "/update", []server.OpWire{{XL: 0, YL: 0, XU: 1.1, YU: 1.1, Data: 7}})
	if w := doJSON(t, h, "POST", "/round", nil); w.Code != http.StatusOK {
		t.Fatalf("round: %d %s", w.Code, w.Body)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	closeStorage()

	srv2, closeStorage2, err := buildServer(vfs, cfg)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	t.Cleanup(func() {
		srv2.Close()
		closeStorage2()
	})
	w := doJSON(t, newTestHandler(srv2), "POST", "/join", nil)
	var resp server.JoinResponseWire
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Count != 200 {
		t.Fatalf("after restart, join count = %d, want 200", resp.Count)
	}
}
