package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/router"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// newShardDaemon runs a real shard server — pager-backed store, static S,
// the same HTTP surface spatialjoind mounts — behind an httptest listener
// and returns its base URL.
func newShardDaemon(t *testing.T, keys zorder.KeyRange, sItems []rtree.Item) string {
	t.Helper()
	treeOpts := rtree.Options{PageSize: storage.PageSize1K}
	pager, err := storage.OpenPager(storage.NewMemVFS(), "r.db", storage.PageSize1K, storage.PagerOptions{})
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	tree, err := rtree.New(treeOpts)
	if err != nil {
		t.Fatalf("rtree.New: %v", err)
	}
	store, err := rtree.NewTreeStore(tree, pager)
	if err != nil {
		t.Fatalf("NewTreeStore: %v", err)
	}
	sTree, err := rtree.BulkLoadSTR(treeOpts, sItems)
	if err != nil {
		t.Fatalf("BulkLoadSTR: %v", err)
	}
	srv, err := server.New(server.Config{Store: store, S: sTree})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(server.NewHandler(srv, server.HandlerConfig{Shard: &keys}))
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Logf("closing shard: %v", err)
		}
		if err := pager.Close(); err != nil {
			t.Logf("closing pager: %v", err)
		}
	})
	return ts.URL
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
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

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-shards", " http://a:1, http://b:2 ,", "-retries", "5"})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if len(cfg.shardURLs) != 2 || cfg.shardURLs[0] != "http://a:1" || cfg.shardURLs[1] != "http://b:2" {
		t.Fatalf("shardURLs = %v", cfg.shardURLs)
	}
	if cfg.retries != 5 {
		t.Fatalf("retries = %d, want 5", cfg.retries)
	}
	if _, err := parseFlags(nil); err == nil {
		t.Fatal("parseFlags accepted an empty shard list")
	}
}

// TestRouterEndToEnd drives the full path a deployment sees: key ranges
// discovered from the shards' /stats, updates routed by centre key, a
// round committed everywhere, and a join gathered from both shards.  One S
// rectangle covering the world makes the oracle trivial: every routed op
// joins it once.  The wire order is deterministic, not sorted, so the test
// sorts by R.
func TestRouterEndToEnd(t *testing.T) {
	sItems := []rtree.Item{{Rect: geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}, Data: 0}}
	ranges := zorder.UniformKeyRanges(2)
	urls := []string{
		newShardDaemon(t, ranges[0], sItems),
		newShardDaemon(t, ranges[1], sItems),
	}

	cfg, err := parseFlags([]string{"-shards", strings.Join(urls, ","), "-retries", "2"})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := discoverShards(context.Background(), http.DefaultClient, cfg)
	if err != nil {
		t.Fatalf("discoverShards: %v", err)
	}
	for i, sh := range shards {
		if sh.Range != ranges[i] {
			t.Fatalf("discovered range %d = %v, want %v", i, sh.Range, ranges[i])
		}
	}
	rt, err := router.New(router.Config{Shards: shards, RetryAttempts: cfg.retries})
	if err != nil {
		t.Fatal(err)
	}
	h := router.NewHandler(rt)

	ops := []server.OpWire{
		{XL: 0.10, YL: 0.10, XU: 0.12, YU: 0.12, Data: 1},
		{XL: 0.90, YL: 0.90, XU: 0.92, YU: 0.92, Data: 2},
		{XL: 0.10, YL: 0.90, XU: 0.12, YU: 0.92, Data: 3},
		{XL: 0.90, YL: 0.10, XU: 0.92, YU: 0.12, Data: 4},
	}
	if w := doJSON(t, h, "POST", "/update", ops); w.Code != http.StatusAccepted {
		t.Fatalf("update: %d %s", w.Code, w.Body)
	}
	if w := doJSON(t, h, "POST", "/round", nil); w.Code != http.StatusOK {
		t.Fatalf("round: %d %s", w.Code, w.Body)
	}
	w := doJSON(t, h, "POST", "/join", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("join: %d %s", w.Code, w.Body)
	}
	var resp struct {
		Count  int                   `json:"count"`
		Pairs  [][2]int32            `json:"pairs"`
		Shards []router.ShardOutcome `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := [][2]int32{{1, 0}, {2, 0}, {3, 0}, {4, 0}}
	sort.Slice(resp.Pairs, func(i, j int) bool { return resp.Pairs[i][0] < resp.Pairs[j][0] })
	if resp.Count != len(want) || len(resp.Pairs) != len(want) {
		t.Fatalf("join count = %d (%d pairs), want %d", resp.Count, len(resp.Pairs), len(want))
	}
	for i := range want {
		if resp.Pairs[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, resp.Pairs[i], want[i])
		}
	}
	if len(resp.Shards) != 2 {
		t.Fatalf("join reported %d shard outcomes, want 2", len(resp.Shards))
	}

	if w := doJSON(t, h, "GET", "/stats", nil); w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
}

// stubShardPair returns a healthy stub shard and a broken one, each
// advertising half of the key space, with the broken half answering /join
// as scripted.
func stubShardPair(t *testing.T, brokenJoin http.HandlerFunc) []router.Shard {
	t.Helper()
	ranges := zorder.UniformKeyRanges(2)
	mkStats := func(rng zorder.KeyRange) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"shard":%q}`, rng)
		}
	}
	healthy := http.NewServeMux()
	healthy.HandleFunc("GET /stats", mkStats(ranges[0]))
	healthy.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"epoch":1,"count":0}`+"\n")
	})
	broken := http.NewServeMux()
	broken.HandleFunc("GET /stats", mkStats(ranges[1]))
	broken.HandleFunc("POST /join", brokenJoin)

	hts := httptest.NewServer(healthy)
	bts := httptest.NewServer(broken)
	t.Cleanup(hts.Close)
	t.Cleanup(bts.Close)
	return []router.Shard{
		{Name: "healthy", URL: hts.URL, Range: ranges[0]},
		{Name: "broken", URL: bts.URL, Range: ranges[1]},
	}
}

// TestPartialFailureMapsTo502 pins the gateway contract: one shard failing
// after retries yields 502 naming the shard, never a 200 with half the
// pairs.
func TestPartialFailureMapsTo502(t *testing.T) {
	shards := stubShardPair(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"disk died"}`, http.StatusInternalServerError)
	})
	rt, err := router.New(router.Config{Shards: shards, RetryAttempts: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, router.NewHandler(rt), "POST", "/join", nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("join over half-dead deployment: %d, want 502", w.Code)
	}
	var body struct {
		Failed    []string `json:"failed"`
		Succeeded []string `json:"succeeded"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Failed) != 1 || body.Failed[0] != "broken" {
		t.Fatalf("failed = %v, want [broken]", body.Failed)
	}
	if len(body.Succeeded) != 1 || body.Succeeded[0] != "healthy" {
		t.Fatalf("succeeded = %v, want [healthy]", body.Succeeded)
	}
}

// TestAllShedMapsTo503 pins the overload path: when every failed shard was
// shedding, the router sheds too, forwarding the largest Retry-After as
// RFC 9110 integer seconds.
func TestAllShedMapsTo503(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{}`) })
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	rt, err := router.New(router.Config{
		Shards:        []router.Shard{{Name: "s", URL: ts.URL, Range: zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}}},
		RetryAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, router.NewHandler(rt), "POST", "/join", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-shed join: %d, want 503", w.Code)
	}
	secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || secs < 3 {
		t.Fatalf("Retry-After = %q (err %v), want the forwarded 3s", w.Header().Get("Retry-After"), err)
	}
}

// syncBuffer lets the test read the daemon's log output while run() is
// still writing it.
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

// TestRouterBoundsHeaderReads: a client that sends half a request line
// and nothing more is hung up on once -deadline has passed, instead of
// holding a connection and a goroutine for good.
func TestRouterBoundsHeaderReads(t *testing.T) {
	sItems := []rtree.Item{{Rect: geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}, Data: 0}}
	url := newShardDaemon(t, zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}, sItems)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-shards", url, "-deadline", "200ms"}, out)
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if m := regexp.MustCompile(`routing on (\S+)`).FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no listen address logged: %q", out.String())
		}
	}
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
		t.Fatalf("the connection is still open %v after half a request line", time.Since(start))
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunDrainsOnSignal boots the real run() against a live shard, waits
// until it serves, cancels the signal context (what SIGTERM does) and
// requires a clean, prompt exit.
func TestRunDrainsOnSignal(t *testing.T) {
	sItems := []rtree.Item{{Rect: geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}, Data: 0}}
	url := newShardDaemon(t, zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}, sItems)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-shards", url}, out)
	}()

	deadline := time.After(10 * time.Second)
	for !strings.Contains(out.String(), "routing on") {
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v (log: %s)", err, out.String())
		case <-deadline:
			t.Fatalf("router never started serving (log: %s)", out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain within 10s of cancellation")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("drain not logged: %s", out.String())
	}
}
