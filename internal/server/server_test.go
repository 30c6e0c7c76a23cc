package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func genItems(rng *rand.Rand, n int, base int32, side float64) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = rtree.Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + side, YU: y + side},
			Data: base + int32(i),
		}
	}
	return items
}

var testTreeOpts = rtree.Options{PageSize: storage.PageSize1K}

func fastPagerOpts() storage.PagerOptions {
	return storage.PagerOptions{ReadRetries: 1, Sleep: func(time.Duration) {}}
}

// fixture is a server over a FaultFS-wrapped pager plus the item sets the
// model-based assertions recompute joins from.
type fixture struct {
	srv    *Server
	fs     *storage.FaultFS
	rItems []rtree.Item
	sItems []rtree.Item
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	return newSizedFixture(t, cfg, 400, 300, 0.02)
}

// newWideFixture's rectangles are five times as wide: its full join is
// about 4 800 pairs, a /join body of several wire chunks.
func newWideFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	return newSizedFixture(t, cfg, 400, 300, 0.1)
}

// newStreamFixture is the fixture of the streaming-fault tests.  Its full
// join streams many times the encoder's ring of pairs, so the first chunk
// leaves while the join still has pages to read.  The test runs on at least
// two procs, so the join runs its helpers and the encoder its writer.
func newStreamFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	atLeastTwoProcs(t)
	fx := newSizedFixture(t, cfg, 6000, 4000, 0.02)
	res, err := join.Join(fx.srv.cfg.Store.Tree(), fx.srv.cfg.S, join.Options{Method: join.SJ4, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < 3*ringBlocks*blockPairs {
		t.Fatalf("the stream fixture's join has %d pairs, too few to overrun the encoder's ring", res.Count)
	}
	return fx
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test if it is lower.
func atLeastTwoProcs(t testing.TB) {
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

func newSizedFixture(t testing.TB, cfg Config, nR, nS int, side float64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	rItems := genItems(rng, nR, 0, side)
	sItems := genItems(rng, nS, 1_000_000, side)
	rTree, err := rtree.BulkLoadSTR(testTreeOpts, rItems)
	if err != nil {
		t.Fatal(err)
	}
	sTree, err := rtree.BulkLoadSTR(testTreeOpts, sItems)
	if err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultFS(storage.NewMemVFS(), storage.FaultScript{})
	p, err := storage.OpenPager(fs, "r.db", storage.PageSize1K, fastPagerOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	store, err := rtree.NewTreeStore(rTree, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	cfg.S = sTree
	if cfg.Reopen == nil {
		cfg.Reopen = func() (*rtree.TreeStore, error) {
			p2, err := storage.OpenPager(fs, "r.db", storage.PageSize1K, fastPagerOpts())
			if err != nil {
				return nil, err
			}
			return rtree.OpenTreeStore(p2, testTreeOpts)
		}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(context.Context, time.Duration) {}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &fixture{srv: srv, fs: fs, rItems: rItems, sItems: sItems}
}

// brutePairs is the model answer: every intersecting (r, s) id pair.
func brutePairs(rItems, sItems []rtree.Item) map[join.Pair]bool {
	out := make(map[join.Pair]bool)
	for _, r := range rItems {
		for _, s := range sItems {
			if r.Rect.Intersects(s.Rect) {
				out[join.Pair{R: r.Data, S: s.Data}] = true
			}
		}
	}
	return out
}

func pairSet(pairs []join.Pair) map[join.Pair]bool {
	out := make(map[join.Pair]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

func samePairs(t *testing.T, got map[join.Pair]bool, want map[join.Pair]bool, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("%s: missing pair %v", what, p)
		}
	}
}

func TestServerJoinMatchesSequential(t *testing.T) {
	f := newFixture(t, Config{})
	want := brutePairs(f.rItems, f.sItems)

	resp, err := f.srv.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != f.srv.CurrentEpoch() {
		t.Fatalf("response epoch %d, current %d", resp.Epoch, f.srv.CurrentEpoch())
	}
	samePairs(t, pairSet(resp.Pairs), want, "sequential server join")

	// The measured path must agree with a pure in-memory sequential join,
	// pair for pair and in the same order.
	seq, err := join.Join(f.srv.cfg.Store.Tree(), f.srv.cfg.S, join.Options{Method: join.SJ4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Pairs) != len(resp.Pairs) {
		t.Fatalf("server %d pairs, sequential %d", len(resp.Pairs), len(seq.Pairs))
	}
	for i := range seq.Pairs {
		if seq.Pairs[i] != resp.Pairs[i] {
			t.Fatalf("pair %d: server %v, sequential %v", i, resp.Pairs[i], seq.Pairs[i])
		}
	}
}

// TestServerJoinsShareRecyclingCache runs concurrent joins over one epoch whose page cache holds four pages: every miss
// reads into its tracker's own frame and every Put recycles a frame another
// join's tracker may just have read from the cache.  Every answer must be
// the model's (and, under -race, free of data races on those frames).
func TestServerJoinsShareRecyclingCache(t *testing.T) {
	atLeastTwoProcs(t)
	f := newFixture(t, Config{CacheBytes: 4 * storage.PageSize1K})
	want := brutePairs(f.rItems, f.sItems)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	got := make([][]join.Pair, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, err := f.srv.Join(context.Background(), JoinRequest{})
				if err != nil {
					errs <- err
					return
				}
				got[g] = resp.Pairs
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g, pairs := range got {
		samePairs(t, pairSet(pairs), want, fmt.Sprintf("join %d over the recycling cache", g))
	}
	if st := f.srv.Cache().Stats(); st.Pages != 4 || st.Evictions == 0 || st.Misses == 0 {
		t.Fatalf("cache stats %+v: want a full four-page cache that evicted", st)
	}
}

// TestServerIgnoresWorkers: JoinRequest.Workers, kept for the ledger, is
// ignored.  A request for a million workers is the request without them:
// the same pairs in the same order and the same counters.
func TestServerIgnoresWorkers(t *testing.T) {
	f := newFixture(t, Config{})
	want, err := f.srv.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.srv.Join(context.Background(), JoinRequest{Workers: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Pairs, want.Pairs) || resp.Metrics != want.Metrics {
		t.Fatalf("Workers: 1<<20 found %d pairs, metrics %+v; without it %d, %+v",
			resp.Count, resp.Metrics, want.Count, want.Metrics)
	}
	samePairs(t, pairSet(resp.Pairs), brutePairs(f.rItems, f.sItems), "join with Workers set")
}

func TestServerUpdateInvisibleUntilRound(t *testing.T) {
	f := newFixture(t, Config{})
	want0 := brutePairs(f.rItems, f.sItems)

	// Stage churn: delete 80 items, insert 90 fresh ones.
	rng := rand.New(rand.NewSource(62))
	var ops []Op
	for _, it := range f.rItems[:80] {
		ops = append(ops, Op{Rect: it.Rect, Data: it.Data, Delete: true})
	}
	freshItems := genItems(rng, 90, 500_000, 0.02)
	for _, it := range freshItems {
		ops = append(ops, Op{Rect: it.Rect, Data: it.Data})
	}
	if err := f.srv.Update(ops); err != nil {
		t.Fatal(err)
	}

	resp, err := f.srv.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, pairSet(resp.Pairs), want0, "join before round (staged ops must be invisible)")

	rs, err := f.srv.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Applied != len(ops) {
		t.Fatalf("round applied %d ops, staged %d", rs.Applied, len(ops))
	}
	after := append(append([]rtree.Item{}, f.rItems[80:]...), freshItems...)
	resp, err = f.srv.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, pairSet(resp.Pairs), brutePairs(after, f.sItems), "join after round")
}

// TestServerParkedReaderAcrossRounds pins a reader (a join blocked inside its
// OnPair callback) on one epoch while the writer commits three rounds past
// it.  The parked join must complete with the pair set of ITS snapshot —
// untouched by any later round — and its epoch must retire once it drains.
func TestServerParkedReaderAcrossRounds(t *testing.T) {
	f := newFixture(t, Config{DefaultDeadline: -1})
	want := brutePairs(f.rItems, f.sItems)
	firstEpoch := f.srv.CurrentEpoch()

	started := make(chan struct{})
	unblock := make(chan struct{})
	type outcome struct {
		resp *JoinResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		var once sync.Once
		resp, err := f.srv.Join(context.Background(), JoinRequest{
			OnPair: func(join.Pair) {
				once.Do(func() {
					close(started)
					<-unblock
				})
			},
		})
		done <- outcome{resp, err}
	}()
	<-started

	// Three rounds of churn while the reader is parked.
	rng := rand.New(rand.NewSource(63))
	live := append([]rtree.Item{}, f.rItems...)
	for round := 0; round < 3; round++ {
		var ops []Op
		for _, it := range live[:40] {
			ops = append(ops, Op{Rect: it.Rect, Data: it.Data, Delete: true})
		}
		live = live[40:]
		fresh := genItems(rng, 30, int32(600_000+round*1000), 0.02)
		for _, it := range fresh {
			ops = append(ops, Op{Rect: it.Rect, Data: it.Data})
		}
		live = append(live, fresh...)
		if err := f.srv.Update(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := f.srv.Round(); err != nil {
			t.Fatal(err)
		}
	}
	if cur := f.srv.CurrentEpoch(); cur != firstEpoch+3 {
		t.Fatalf("current epoch %d, want %d", cur, firstEpoch+3)
	}

	close(unblock)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.resp.Epoch != firstEpoch {
		t.Fatalf("parked join ran on epoch %d, pinned %d", out.resp.Epoch, firstEpoch)
	}
	samePairs(t, pairSet(out.resp.Pairs), want, "parked reader (must see its own epoch)")

	// The parked epoch drained with the join; only the current one is live.
	st := f.srv.Snapshot()
	if st.EpochsLive != 1 {
		t.Fatalf("%d live epochs after the parked reader drained, want 1", st.EpochsLive)
	}

	// The fresh epoch serves the churned state.
	resp, err := f.srv.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, pairSet(resp.Pairs), brutePairs(live, f.sItems), "join after churn")
}

// TestServerZeroReaderFastPath: flipping with no readers retires the old
// epoch synchronously inside Round.
func TestServerZeroReaderFastPath(t *testing.T) {
	f := newFixture(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := f.srv.Round(); err != nil {
			t.Fatal(err)
		}
		if st := f.srv.Snapshot(); st.EpochsLive != 1 {
			t.Fatalf("round %d: %d live epochs, want 1 (zero-reader fast path)", i, st.EpochsLive)
		}
	}
}

func TestServerShedAtSlotCapacity(t *testing.T) {
	f := newFixture(t, Config{MaxInflight: 1, CostBudget: -1, DefaultDeadline: -1})

	started := make(chan struct{})
	unblock := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var once sync.Once
		_, err := f.srv.Join(context.Background(), JoinRequest{
			DiscardPairs: true,
			OnPair: func(join.Pair) {
				once.Do(func() {
					close(started)
					<-unblock
				})
			},
		})
		done <- err
	}()
	<-started

	_, err := f.srv.Join(context.Background(), JoinRequest{})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("join at capacity returned %v, want ErrShed", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("shed error is %T, want *ShedError", err)
	}
	if shed.RetryAfter <= 0 || shed.Queued != 1 {
		t.Fatalf("shed hint %+v: want positive RetryAfter and Queued=1", shed)
	}

	close(unblock)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Join(context.Background(), JoinRequest{}); err != nil {
		t.Fatalf("join after the queue drained: %v", err)
	}
	if st := f.srv.Snapshot(); st.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", st.Shed)
	}
}

func TestServerShedOnCostBudget(t *testing.T) {
	f := newFixture(t, Config{CostBudget: time.Nanosecond})
	_, err := f.srv.Join(context.Background(), JoinRequest{})
	var shed *ShedError
	if !errors.Is(err, ErrShed) || !errors.As(err, &shed) {
		t.Fatalf("join over budget returned %v, want *ShedError", err)
	}
	if shed.EstimatedCost <= 0 {
		t.Fatalf("shed hint carries no cost estimate: %+v", shed)
	}
}

func TestServerDeadline(t *testing.T) {
	f := newFixture(t, Config{})

	// Already-expired context: typed error before any work.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := f.srv.Join(ctx, JoinRequest{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired context returned %v, want ErrDeadline", err)
	}

	// Deadline hit mid-join: the traversal is abandoned, partial results
	// are discarded, and the error is the same typed ErrDeadline.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	var once sync.Once
	_, err = f.srv.Join(ctx2, JoinRequest{
		OnPair: func(join.Pair) {
			once.Do(func() { time.Sleep(80 * time.Millisecond) })
		},
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("mid-join deadline returned %v, want ErrDeadline", err)
	}
	if st := f.srv.Snapshot(); st.Deadlined != 2 {
		t.Fatalf("deadline counter %d, want 2", st.Deadlined)
	}
}

func TestServerCancelTyped(t *testing.T) {
	f := newFixture(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := f.srv.Join(ctx, JoinRequest{
		OnPair: func(join.Pair) { once.Do(cancel) },
	})
	if !errors.Is(err, join.ErrCancelled) {
		t.Fatalf("cancelled join returned %v, want join.ErrCancelled", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatal("caller cancellation must not be classified as a deadline")
	}
}

// TestServerCancellationRacingFlip races cancelling readers against writer
// rounds.  Run under -race this pins the epoch pin/unpin discipline; the
// assertion is that every outcome is a result or a typed error and that the
// server converges to one live epoch.
func TestServerCancellationRacingFlip(t *testing.T) {
	f := newFixture(t, Config{MaxInflight: 64, CostBudget: -1, DefaultDeadline: -1})

	var wg, writerWG sync.WaitGroup
	stopWriter := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(64))
		next := int32(700_000)
		var prev []rtree.Item
		for {
			select {
			case <-stopWriter:
				return
			default:
			}
			// Replace the previous round's inserts so the tree (and the
			// pager file) stay bounded however long the readers take.
			fresh := genItems(rng, 10, next, 0.02)
			next += 10
			ops := make([]Op, 0, len(prev)+len(fresh))
			for _, it := range prev {
				ops = append(ops, Op{Rect: it.Rect, Data: it.Data, Delete: true})
			}
			for _, it := range fresh {
				ops = append(ops, Op{Rect: it.Rect, Data: it.Data})
			}
			prev = fresh
			if err := f.srv.Update(ops); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			if _, err := f.srv.Round(); err != nil {
				t.Errorf("round: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (g+i)%2 == 0 {
					// Cancel racing the join (and the writer's flips).
					go cancel()
				}
				resp, err := f.srv.Join(ctx, JoinRequest{DiscardPairs: true})
				cancel()
				switch {
				case err == nil:
					if resp.Count < 0 {
						t.Errorf("negative count")
					}
				case errors.Is(err, join.ErrCancelled),
					errors.Is(err, ErrDeadline),
					errors.Is(err, ErrShed):
				default:
					t.Errorf("untyped error: %v", err)
				}
			}
		}(g)
	}

	// Let readers finish, then stop the writer.
	waitReaders := make(chan struct{})
	go func() { wg.Wait(); close(waitReaders) }()
	select {
	case <-waitReaders:
		close(stopWriter)
	case <-time.After(30 * time.Second):
		close(stopWriter)
		writerWG.Wait()
		t.Fatal("joins did not drain — hang under churn")
	}
	writerWG.Wait()

	if st := f.srv.Snapshot(); st.EpochsLive != 1 {
		t.Fatalf("%d live epochs after drain, want 1", st.EpochsLive)
	}
}

func TestServerBrokenThenReopen(t *testing.T) {
	f := newFixture(t, Config{RetryAttempts: 2})
	want := brutePairs(f.rItems, f.sItems)

	if _, err := f.srv.Join(context.Background(), JoinRequest{}); err != nil {
		t.Fatalf("clean join: %v", err)
	}

	// Dead sector: every physical read fails, pager retries exhaust, the
	// server retries the join, then latches broken.
	f.fs.SetScript(storage.FaultScript{ReadErrEvery: 1})
	_, err := f.srv.Join(context.Background(), JoinRequest{})
	if !errors.Is(err, ErrServerBroken) {
		t.Fatalf("join on dead disk returned %v, want ErrServerBroken", err)
	}
	if !f.srv.Broken() {
		t.Fatal("server not marked broken")
	}
	st := f.srv.Snapshot()
	if st.Retries == 0 {
		t.Fatal("no retry recorded before breaking")
	}

	// Sticky: everything fails fast without touching the disk.
	if _, err := f.srv.Join(context.Background(), JoinRequest{}); !errors.Is(err, ErrServerBroken) {
		t.Fatalf("join while broken returned %v", err)
	}
	if err := f.srv.Update([]Op{{Rect: geom.Rect{XU: 0.1, YU: 0.1}, Data: 1}}); !errors.Is(err, ErrServerBroken) {
		t.Fatalf("update while broken returned %v", err)
	}
	if _, err := f.srv.Round(); !errors.Is(err, ErrServerBroken) {
		t.Fatalf("round while broken returned %v", err)
	}

	// Disk replaced: reopen recovers to the last committed state.
	f.fs.SetScript(storage.FaultScript{})
	if err := f.srv.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if f.srv.Broken() {
		t.Fatal("server still broken after reopen")
	}
	resp, err := f.srv.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatalf("join after reopen: %v", err)
	}
	samePairs(t, pairSet(resp.Pairs), want, "join after recovery")
}

// TestServerRetriesOnlyUnobservedJoins is the regression for the replayed
// prefix: a join that a transient read fault ends is re-run only while its
// OnPair observer has seen no pair.  A fault before the first pair is
// retried away and the observer sees every pair once.  After it, the
// remaining attempts run without the observer and only decide the outcome:
// a fault the backoff heals is a typed ErrTransient with the server still
// healthy, and one that never heals breaks the server, as it would any
// join.  No pair is ever seen twice.
func TestServerRetriesOnlyUnobservedJoins(t *testing.T) {
	for _, tc := range []struct {
		name       string
		afterPairs bool // the fault starts at the first pair, not before the join
		persists   bool // the backoff does not heal the disk
	}{
		{"fault before the first pair", false, false},
		{"fault after the first pair", true, false},
		{"persistent fault after the first pair", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f *fixture
			f = newStreamFixture(t, Config{RetryAttempts: 2, Sleep: func(context.Context, time.Duration) {
				if !tc.persists {
					f.fs.SetScript(storage.FaultScript{})
				}
			}})
			want := brutePairs(f.rItems, f.sItems)
			dead := storage.FaultScript{ReadErrEvery: 1}
			if !tc.afterPairs {
				f.fs.SetScript(dead)
			}
			seen := make(map[join.Pair]int)
			resp, err := f.srv.Join(context.Background(), JoinRequest{
				DiscardPairs: true,
				OnPair: func(p join.Pair) {
					if len(seen) == 0 && tc.afterPairs {
						f.fs.SetScript(dead)
					}
					seen[p]++
				},
			})
			for p, n := range seen {
				if n > 1 {
					t.Fatalf("the observer saw pair %v %d times", p, n)
				}
			}
			if tc.afterPairs {
				if len(seen) == 0 || len(seen) >= len(want) {
					t.Fatalf("observer saw %d of %d pairs before the fault", len(seen), len(want))
				}
				if tc.persists {
					if !errors.Is(err, ErrServerBroken) || !f.srv.Broken() || f.srv.Snapshot().Retries != 2 {
						t.Fatalf("persistent fault: %v, broken %v, retries %d; want ErrServerBroken after both retries",
							err, f.srv.Broken(), f.srv.Snapshot().Retries)
					}
					return
				}
				if !errors.Is(err, ErrTransient) {
					t.Fatalf("fault after observed pairs returned %v, want ErrTransient", err)
				}
				if f.srv.Broken() || f.srv.Snapshot().Retries != 1 {
					t.Fatalf("healed fault: broken %v, retries %d; want healthy after one retry", f.srv.Broken(), f.srv.Snapshot().Retries)
				}
				f.fs.SetScript(storage.FaultScript{})
				resp, err = f.srv.Join(context.Background(), JoinRequest{})
				if err != nil {
					t.Fatalf("the next join: %v", err)
				}
				samePairs(t, pairSet(resp.Pairs), want, "join after the declined retry")
				return
			}
			if err != nil {
				t.Fatalf("fault before any pair: %v, want it retried away", err)
			}
			if resp.Retries != 1 || resp.Count != len(seen) {
				t.Fatalf("retries %d, count %d, observed %d: want one retry and every pair once", resp.Retries, resp.Count, len(seen))
			}
			got := make(map[join.Pair]bool, len(seen))
			for p := range seen {
				got[p] = true
			}
			samePairs(t, got, want, "retried join")
		})
	}
}

// TestServerQuickSequences drives random op sequences (stage, delete, round,
// join) against a brute-force model of the committed item set: every join
// must return exactly the model's pair set for the epoch it ran on.
func TestServerQuickSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	sItems := genItems(rng, 80, 1_000_000, 0.04)
	sTree, err := rtree.BulkLoadSTR(testTreeOpts, sItems)
	if err != nil {
		t.Fatal(err)
	}

	run := func(script []byte) bool {
		seedItems := genItems(rng, 120, 0, 0.04)
		rTree, err := rtree.BulkLoadSTR(testTreeOpts, seedItems)
		if err != nil {
			t.Fatal(err)
		}
		p, err := storage.OpenPager(storage.NewMemVFS(), "r.db", storage.PageSize1K, fastPagerOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		store, err := rtree.NewTreeStore(rTree, p)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Store: store, S: sTree, BatchCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		// committed is what readers must see; writerSet tracks the writer's
		// state including staged-but-uncommitted ops.
		committed := append([]rtree.Item{}, seedItems...)
		writerSet := append([]rtree.Item{}, seedItems...)
		var staged []Op
		next := int32(10_000)
		if len(script) > 48 {
			script = script[:48]
		}
		for _, b := range script {
			switch b % 4 {
			case 0: // stage inserts
				fresh := genItems(rng, 3, next, 0.04)
				next += 3
				for _, it := range fresh {
					staged = append(staged, Op{Rect: it.Rect, Data: it.Data})
				}
				if err := srv.Update(staged[len(staged)-3:]); err != nil {
					t.Fatal(err)
				}
			case 1: // stage deletes of items committed in an earlier round
				for k := 0; k < 2 && len(writerSet) > 0; k++ {
					idx := int(b+byte(k)) % len(writerSet)
					it := writerSet[idx]
					writerSet = append(writerSet[:idx], writerSet[idx+1:]...)
					op := Op{Rect: it.Rect, Data: it.Data, Delete: true}
					staged = append(staged, op)
					if err := srv.Update([]Op{op}); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // round boundary: staged churn becomes visible
				if _, err := srv.Round(); err != nil {
					t.Fatal(err)
				}
				for _, op := range staged {
					if !op.Delete {
						writerSet = append(writerSet, rtree.Item{Rect: op.Rect, Data: op.Data})
					}
				}
				staged = staged[:0]
				committed = append(committed[:0:0], writerSet...)
			case 3: // join must match the committed model exactly
				resp, err := srv.Join(context.Background(), JoinRequest{})
				if err != nil {
					t.Fatal(err)
				}
				want := brutePairs(committed, sItems)
				if len(resp.Pairs) != len(want) {
					return false
				}
				for _, pr := range resp.Pairs {
					if !want[pr] {
						return false
					}
				}
			}
		}
		return srv.Snapshot().EpochsLive == 1
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(66))}
	if err := quick.Check(run, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseWaitsForAdmittedJoins is the regression for the join that
// outlived Close: Join checked closed first but joined Close's wait only
// after pinning and admission, so a Close in between returned while the join
// went on to run on a store its caller may already have closed.  Joiners
// loop until ErrClosed; none may see a pair once Close has returned.
func TestServerCloseWaitsForAdmittedJoins(t *testing.T) {
	for round := 0; round < 20; round++ {
		f := newFixture(t, Config{CostBudget: -1, DefaultDeadline: -1})
		var closed atomic.Bool
		var late atomic.Int64
		onPair := func(join.Pair) {
			if closed.Load() {
				late.Add(1)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := f.srv.Join(context.Background(), JoinRequest{DiscardPairs: true, OnPair: onPair})
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("join before close: %v", err)
						return
					}
				}
			}()
		}
		for f.srv.Snapshot().Done < 4 {
			runtime.Gosched()
		}
		if err := f.srv.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		wg.Wait()
		if n := late.Load(); n > 0 {
			t.Fatalf("round %d: joins saw %d pairs after Close returned", round, n)
		}
	}
}

// TestServerCloseDrainsNoGoroutineLeak: after a mix of clean, cancelled and
// deadline-hit joins, Close drains and no goroutine survives.
func TestServerCloseDrainsNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		f := newFixture(t, Config{})
		for i := 0; i < 10; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			if i%3 == 0 {
				var once sync.Once
				_, _ = f.srv.Join(ctx, JoinRequest{OnPair: func(join.Pair) { once.Do(cancel) }})
			} else {
				_, _ = f.srv.Join(ctx, JoinRequest{DiscardPairs: true})
			}
			cancel()
		}
		if err := f.srv.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.srv.Join(context.Background(), JoinRequest{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("join after close returned %v, want ErrClosed", err)
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
