package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// The deployment fixtures run real shard servers — pager-backed stores over
// FaultFS so storage faults are injectable — behind httptest listeners, and
// drive them through the router exactly as a deployment would: route the
// churn with Update, flip with Round, fan the join out with Join.

const testSide = 0.02

func genROps(n int, seed int64) []server.OpWire {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]server.OpWire, n)
	for i := range ops {
		x, y := rng.Float64()*(1-testSide), rng.Float64()*(1-testSide)
		ops[i] = server.OpWire{XL: x, YL: y, XU: x + testSide, YU: y + testSide, Data: int32(i)}
	}
	return ops
}

func genSItems(n int, seed int64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64()*(1-testSide), rng.Float64()*(1-testSide)
		items[i] = rtree.Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + testSide, YU: y + testSide},
			Data: int32(i),
		}
	}
	return items
}

// bruteForcePairs is the oracle: the full R x S intersection test, sorted
// by (R, S).  It shares no code with the trees, the shards or the merge.
func bruteForcePairs(rOps []server.OpWire, sItems []rtree.Item) [][2]int32 {
	var out [][2]int32
	for _, op := range rOps {
		rr := op.Rect()
		for _, s := range sItems {
			if rr.Intersects(s.Rect) {
				out = append(out, [2]int32{op.Data, s.Data})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i], out[j]) })
	return out
}

type shardFixture struct {
	name string
	url  string
	srv  *server.Server
	fs   *storage.FaultFS
	// pager returns the pager under the shard's store, the one the last
	// reopen opened.
	pager func() *storage.Pager
}

func newShardServer(t testing.TB, name string, keys zorder.KeyRange, sItems []rtree.Item) *shardFixture {
	t.Helper()
	treeOpts := rtree.Options{PageSize: storage.PageSize1K}
	pagerOpts := storage.PagerOptions{ReadRetries: 1, Sleep: func(time.Duration) {}}
	fs := storage.NewFaultFS(storage.NewMemVFS(), storage.FaultScript{})
	pager, err := storage.OpenPager(fs, "r.db", storage.PageSize1K, pagerOpts)
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
	var mu sync.Mutex
	cur := pager
	srv, err := server.New(server.Config{
		Store: store,
		S:     sTree,
		Sleep: func(context.Context, time.Duration) {},
		Reopen: func() (*rtree.TreeStore, error) {
			mu.Lock()
			defer mu.Unlock()
			// The reopen replaces a pager a fault already broke.
			//repolint:ignore latchederr reopen discards the broken pager; its latched error is why we are here
			cur.Close()
			p, err := storage.OpenPager(fs, "r.db", storage.PageSize1K, pagerOpts)
			if err != nil {
				return nil, err
			}
			ts, err := rtree.OpenTreeStore(p, treeOpts)
			if err != nil {
				return nil, errors.Join(err, p.Close())
			}
			cur = p
			return ts, nil
		},
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(server.NewHandler(srv, server.HandlerConfig{Shard: &keys}))
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Logf("closing shard %s: %v", name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		// A test may end with the pager faulted; its latched error is part
		// of the scenario, not a leak.
		//repolint:ignore latchederr fault tests end with a deliberately broken pager
		cur.Close()
	})
	return &shardFixture{name: name, url: ts.URL, srv: srv, fs: fs, pager: func() *storage.Pager {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}}
}

// newDeployment builds n shard servers tiling the key space uniformly and
// a router over them.  mutate adjusts the router config before New.
func newDeployment(t testing.TB, n int, mutate func(*Config)) (*Router, []*shardFixture) {
	t.Helper()
	sItems := genSItems(200, 5)
	ranges := zorder.UniformKeyRanges(n)
	fixtures := make([]*shardFixture, n)
	shards := make([]Shard, n)
	for i := range fixtures {
		name := fmt.Sprintf("shard%d", i)
		fixtures[i] = newShardServer(t, name, ranges[i], sItems)
		shards[i] = Shard{Name: name, URL: fixtures[i].url, Range: ranges[i]}
	}
	cfg := Config{
		Shards:        shards,
		RetryAttempts: 2,
		RetryBackoff:  time.Millisecond,
		MaxRetryAfter: 10 * time.Millisecond,
		sleep:         func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt, fixtures
}

func loadDeployment(t *testing.T, rt *Router, rOps []server.OpWire) {
	t.Helper()
	ctx := context.Background()
	staged, err := rt.Update(ctx, rOps)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if staged != len(rOps) {
		t.Fatalf("staged %d of %d ops", staged, len(rOps))
	}
	if err := rt.Round(ctx); err != nil {
		t.Fatalf("Round: %v", err)
	}
}

// TestRouterJoinMatchesDirect is the parity contract: for 1, 2, 3 and 4
// shards the fan-out's pair set equals the brute-force oracle's.  The wire promises a deterministic order, not a
// sorted one, so the test sorts a copy.
func TestRouterJoinMatchesDirect(t *testing.T) {
	rOps := genROps(300, 9)
	sItems := genSItems(200, 5)
	want := bruteForcePairs(rOps, sItems)
	if len(want) == 0 {
		t.Fatal("oracle produced no pairs; test data too sparse")
	}
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rt, _ := newDeployment(t, n, nil)
			loadDeployment(t, rt, rOps)
			res, err := rt.Join(ctx, JoinRequest{})
			if err != nil {
				t.Fatal(err)
			}
			assertPairsEqual(t, "join", sortedPairs(res.Pairs), want)
			if res.Count != len(want) {
				t.Fatalf("count %d, want %d", res.Count, len(want))
			}
			sum := 0
			for _, o := range res.Shards {
				sum += o.Count
				if o.Attempts != 1 {
					t.Fatalf("healthy shard %s took %d attempts", o.Shard, o.Attempts)
				}
			}
			if sum != res.Count {
				t.Fatalf("per-shard counts sum to %d, total %d", sum, res.Count)
			}
		})
	}
}

// TestRouterJoinDeterministicAcrossConfigOrder pins that the merged order
// does not depend on the order shards are listed in the config, nor on the
// run: the merge works in key-range order, not config or completion order.
func TestRouterJoinDeterministicAcrossConfigOrder(t *testing.T) {
	rOps := genROps(300, 9)
	rt, _ := newDeployment(t, 3, nil)
	loadDeployment(t, rt, rOps)
	ctx := context.Background()

	first, err := rt.Join(ctx, JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := rt.Join(ctx, JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, "rerun", again.Pairs, first.Pairs)

	// A second router over the same deployment with the shard list reversed.
	shards := rt.Shards()
	for i, j := 0, len(shards)-1; i < j; i, j = i+1, j-1 {
		shards[i], shards[j] = shards[j], shards[i]
	}
	rev, err := New(Config{Shards: shards, RetryAttempts: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	revRes, err := rev.Join(ctx, JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, "reversed config", revRes.Pairs, first.Pairs)
}

// TestRouterPartialFailureIsTypedAndTotal is the shed/retry sweep's core
// fan-out guarantee: when one shard's storage dies, the join fails with a
// typed *PartialError naming exactly the dead shard — it never returns the
// surviving shards' pairs as if they were the whole answer.  Healing the
// fault and reopening the shard restores exact parity.
func TestRouterPartialFailureIsTypedAndTotal(t *testing.T) {
	rOps := genROps(300, 9)
	sItems := genSItems(200, 5)
	want := bruteForcePairs(rOps, sItems)
	rt, fixtures := newDeployment(t, 2, nil)
	loadDeployment(t, rt, rOps)
	ctx := context.Background()

	fixtures[1].fs.SetScript(storage.FaultScript{ReadErrEvery: 1})
	res, err := rt.Join(ctx, JoinRequest{})
	if err == nil {
		t.Fatal("join over a dead shard succeeded")
	}
	if res != nil {
		t.Fatalf("failed join still returned %d pairs: a truncated result must not escape", res.Count)
	}
	if !errors.Is(err, ErrPartialFailure) {
		t.Fatalf("error %v does not unwrap to ErrPartialFailure", err)
	}
	var perr *PartialError
	if !errors.As(err, &perr) {
		t.Fatalf("error %T is not a *PartialError", err)
	}
	if len(perr.Failures) != 1 || perr.Failures[0].Shard != "shard1" {
		t.Fatalf("failures = %v, want exactly shard1", perr.Failures)
	}
	if len(perr.Succeeded) != 1 || perr.Succeeded[0] != "shard0" {
		t.Fatalf("succeeded = %v, want exactly shard0", perr.Succeeded)
	}

	// Heal the disk, reopen the shard (WAL recovery), and the deployment
	// answers exactly again.
	fixtures[1].fs.SetScript(storage.FaultScript{})
	if err := fixtures[1].srv.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	res, err = rt.Join(ctx, JoinRequest{})
	if err != nil {
		t.Fatalf("join after heal: %v", err)
	}
	assertPairsEqual(t, "after heal", sortedPairs(res.Pairs), want)
}

// TestRouterUpdateRoutesByCentreKey checks the routing invariant the whole
// design rests on: every op lands on the one shard whose range contains
// its centre key, so no shard ever rejects a router-routed op and every
// item is indexed exactly once.
func TestRouterUpdateRoutesByCentreKey(t *testing.T) {
	rOps := genROps(200, 11)
	rt, fixtures := newDeployment(t, 4, nil)
	loadDeployment(t, rt, rOps)
	stats, err := rt.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	total := 0
	for _, fx := range fixtures {
		wire, ok := stats[fx.name]
		if !ok {
			t.Fatalf("no stats for %s", fx.name)
		}
		total += wire.Coverage.RItems
		if wire.Pending != 0 {
			t.Fatalf("%s still has %d staged ops after Round", fx.name, wire.Pending)
		}
	}
	if total != len(rOps) {
		t.Fatalf("shards hold %d items in total, want %d", total, len(rOps))
	}
}

// sortedPairs returns a copy of pairs in ascending (R, S) order.
func sortedPairs(pairs [][2]int32) [][2]int32 {
	out := append([][2]int32(nil), pairs...)
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i], out[j]) })
	return out
}

func assertPairsEqual(t *testing.T, label string, got, want [][2]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestRouterRejectsMalformedUpdates: the gateway checks every op's
// rectangle before it routes the batch, so a malformed one is a 400 at the
// gateway (ErrBadRequest at Router.Update, naming the op) and no shard
// stages any part of the batch.  The batch is the probe that showed joins
// going silently wrong: 3 000 ops with XL and XU swapped on every seventh.
func TestRouterRejectsMalformedUpdates(t *testing.T) {
	rt, fixtures := newDeployment(t, 2, nil)
	ops := genROps(3000, 16)
	for i := 6; i < len(ops); i += 7 {
		ops[i].XL, ops[i].XU = ops[i].XU, ops[i].XL
	}
	staged, err := rt.Update(context.Background(), ops)
	var merr *server.MalformedOpError
	if staged != 0 || !errors.Is(err, ErrBadRequest) || !errors.As(err, &merr) || merr.Index != 6 {
		t.Fatalf("Update = %d, %v; want 0 staged and ErrBadRequest naming op 6", staged, err)
	}
	body, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	if w := postJSON(NewHandler(rt), "/update", string(body)); w.Code != http.StatusBadRequest {
		t.Fatalf("gateway POST /update: %d %s, want 400", w.Code, w.Body)
	}
	for _, fx := range fixtures {
		if n := fx.srv.Pending(); n != 0 {
			t.Fatalf("%s has %d ops pending after a rejected batch", fx.name, n)
		}
	}
}

// TestRouterHomesOutOfWorldRectangles: rectangles partly or wholly outside
// server.UnitWorld are accepted and routed like any other.  The key grid
// clamps a centre outside the world to the edge cell nearest it, on the
// router and on every shard alike, so each op has exactly one home; the
// join itself has no world.  A two-shard deployment answers intersects and
// knn:4 exactly as a single daemon does on the same data, and both equal
// their brute-force oracles.
func TestRouterHomesOutOfWorldRectangles(t *testing.T) {
	rOps := genROps(200, 9)
	outside := []server.OpWire{
		{XL: -0.5, YL: 0.4, XU: 0.01, YU: 0.45},       // over the left edge, centre outside
		{XL: 0.98, YL: 0.98, XU: 1.3, YU: 1.1},        // over the top-right corner
		{XL: 2, YL: 2, XU: 2.5, YU: 3},                // wholly outside, up and right
		{XL: -40, YL: -40, XU: -39, YU: -39},          // wholly outside, down and left
		{XL: 0.3, YL: -1, XU: 0.35, YU: -0.99},        // under the bottom edge
		{XL: -1e6, YL: 0.5, XU: 1e6, YU: 0.51},        // far past both sides, centre inside
		{XL: 1.5, YL: 0.2, XU: 1.5, YU: 0.2},          // a point right of the world
		{XL: -1e300, YL: -1e300, XU: -1e299, YU: 0.5}, // huge, finite
	}
	ranges := zorder.UniformKeyRanges(2)
	homes := make([]int, len(ranges))
	for i := range outside {
		outside[i].Data = int32(10000 + i)
		key := zorder.HilbertKey(outside[i].Rect().Center(), server.UnitWorld)
		for j, r := range ranges {
			if r.Contains(key) {
				homes[j]++
			}
		}
	}
	if homes[0] == 0 || homes[1] == 0 {
		t.Fatalf("out-of-world ops home on shards %v: want some on each", homes)
	}
	rOps = append(rOps, outside...)
	sItems := genSItems(200, 5)
	oracle := map[string][][2]int32{
		"intersects": bruteForcePairs(rOps, sItems),
		"knn:4":      sortedPairs(bruteKNNWire(rOps, sItems, 4)),
	}

	ctx := context.Background()
	single, _ := newDeployment(t, 1, nil)
	loadDeployment(t, single, rOps)
	two, fixtures := newDeployment(t, 2, nil)
	loadDeployment(t, two, rOps)
	stats, err := two.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	total := 0
	for _, fx := range fixtures {
		total += stats[fx.name].Coverage.RItems
	}
	if total != len(rOps) {
		t.Fatalf("the two shards hold %d items, want %d", total, len(rOps))
	}
	for _, pred := range []string{"intersects", "knn:4"} {
		want, err := single.Join(ctx, JoinRequest{Predicate: pred})
		if err != nil {
			t.Fatalf("single daemon %s: %v", pred, err)
		}
		got, err := two.Join(ctx, JoinRequest{Predicate: pred})
		if err != nil {
			t.Fatalf("two shards %s: %v", pred, err)
		}
		assertPairsEqual(t, pred+" single daemon vs oracle", sortedPairs(want.Pairs), oracle[pred])
		assertPairsEqual(t, pred+" two shards vs single daemon", sortedPairs(got.Pairs), sortedPairs(want.Pairs))
	}
}
