package join

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ledgerJoinPair rebuilds the shape of the ledger's batch join (bench/batch.go)
// at a sixth of its size: Streets against Rivers, STR-loaded on 4 KiB pages.
// Its SJ4 join meets about 500 leaf pairs, past the helper gate.
func ledgerJoinPair(tb testing.TB) (r, s *rtree.Tree) {
	tb.Helper()
	var err error
	opts := rtree.Options{PageSize: storage.PageSize4K}
	if r, err = rtree.BulkLoadSTR(opts, datagen.Generate(datagen.Config{Kind: datagen.Streets, Count: 20000, Seed: 7})); err != nil {
		tb.Fatal(err)
	}
	if s, err = rtree.BulkLoadSTR(opts, datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: 20000, Seed: 8})); err != nil {
		tb.Fatal(err)
	}
	return r, s
}

// ledgerJoinOptions are the ledger's batch join options.
func ledgerJoinOptions(m Method) Options {
	return Options{Method: m, BufferBytes: 128 << 10, UsePathBuffer: true}
}

// observed is one join's outcome as a caller can see it.
type observed struct {
	res *Result
	err error
	seq []Pair // what OnPair saw, when the mode attaches it
}

// joinObserved runs Join under one of the output modes: "pairs"
// (materialised), "discard" (DiscardPairs) or "onpair" (materialised, with
// an OnPair observer).
func joinObserved(r, s *rtree.Tree, opts Options, mode string) observed {
	var o observed
	switch mode {
	case "discard":
		opts.DiscardPairs = true
	case "onpair":
		opts.OnPair = func(p Pair) { o.seq = append(o.seq, p) }
	}
	o.res, o.err = Join(r, s, opts)
	return o
}

// sameJoin fails unless b is a, bit for bit: the result pairs in order, the
// count, every counter, and the OnPair sequence.
func sameJoin(t *testing.T, label string, a, b observed) {
	t.Helper()
	if a.err != nil || b.err != nil {
		t.Fatalf("%s: errors %v / %v", label, a.err, b.err)
	}
	if !slices.Equal(a.res.Pairs, b.res.Pairs) || a.res.Count != b.res.Count {
		t.Errorf("%s: %d pairs (count %d), inline %d (count %d), or a different order",
			label, len(b.res.Pairs), b.res.Count, len(a.res.Pairs), a.res.Count)
	}
	if a.res.Metrics != b.res.Metrics {
		t.Errorf("%s: metrics\n got    %+v\n inline %+v", label, b.res.Metrics, a.res.Metrics)
	}
	if !slices.Equal(a.seq, b.seq) {
		t.Errorf("%s: OnPair saw %d pairs, inline %d, or a different order", label, len(b.seq), len(a.seq))
	}
}

// TestHelpersChangeNoBit is the bit-identity wall of the helpers: with one
// and with three helpers handed work from the first leaf pair, every sweep
// join (SJ3-SJ5 x intersects/within) and the best-first kNN join, on the
// golden datasets and on a ledger-shaped pair, must return the inline
// join's pairs in its order, its OnPair sequence and every counter.
func TestHelpersChangeNoBit(t *testing.T) {
	goldenR, goldenS, _, _ := buildPair(t, 2000, 2000, storage.PageSize1K)
	heightR, heightS := buildHeightPair(t)
	ledgerR, ledgerS := ledgerJoinPair(t)
	knnR, knnS := ledgerKNNPair(t, 2000, 2000, 1)
	type run struct {
		name string
		r, s *rtree.Tree
		opts Options
	}
	var runs []run
	for _, m := range []Method{SJ3, SJ4, SJ5} {
		for _, pred := range []Predicate{{}, WithinDistance(0.002)} {
			golden := Options{Method: m, BufferBytes: 64 << 10, UsePathBuffer: true, Predicate: pred}
			ledger := ledgerJoinOptions(m)
			ledger.Predicate = pred
			runs = append(runs,
				run{fmt.Sprintf("golden/%v/%v", m, pred), goldenR, goldenS, golden},
				run{fmt.Sprintf("ledger/%v/%v", m, pred), ledgerR, ledgerS, ledger})
		}
	}
	noRestrict := Options{Method: SJ3, BufferBytes: 64 << 10, DisableRestriction: true}
	heights := Options{Method: SJ4, BufferBytes: 32 << 10, UsePathBuffer: true, HeightPolicy: PolicySweepOrder}
	knn := ledgerKNNOptions()
	knn.DiscardPairs = false
	runs = append(runs,
		run{"golden/noRestrict", goldenR, goldenS, noRestrict},
		run{"heights/policy(c)", heightR, heightS, heights},
		run{"knn/ledger-2000", knnR, knnS, knn})
	if !testing.Short() {
		sr, ss := serveReadKNNPair(t)
		runs = append(runs, run{"knn/serve-read", sr, ss, knn})
	}

	for _, rn := range runs {
		for _, mode := range []string{"pairs", "discard", "onpair"} {
			withHelpers(t, 0)
			inline := joinObserved(rn.r, rn.s, rn.opts, mode)
			for _, n := range []int{1, maxHelpers} {
				withHelpers(t, n)
				sameJoin(t, fmt.Sprintf("%s/%s/%d helpers", rn.name, mode, n), inline, joinObserved(rn.r, rn.s, rn.opts, mode))
			}
		}
	}
}

// TestHelpersStartAtTheGate: with the default gate a join that meets fewer
// leaf pairs than helperGate starts no crew, and one that meets more starts
// it at the gate's pair, when the host has a spare core.
func TestHelpersStartAtTheGate(t *testing.T) {
	helpers, gate := joinHelpers(PredIntersects)
	if runtime.GOMAXPROCS(0) == 1 {
		if helpers != 0 || gate != 0 {
			t.Fatalf("GOMAXPROCS=1: %d helpers at gate %d, want none", helpers, gate)
		}
		return
	}
	if helpers != min(runtime.GOMAXPROCS(0)-1, maxHelpers) || gate != helperGate {
		t.Fatalf("%d helpers at gate %d, want %d at %d", helpers, gate, min(runtime.GOMAXPROCS(0)-1, maxHelpers), helperGate)
	}
	e := &executor{helpers: helpers, gate: gate}
	for i := 1; i < helperGate; i++ {
		if e.crewed() {
			t.Fatalf("crew started at leaf pair %d, gate %d", i, helperGate)
		}
	}
	if !e.crewed() || e.crew == nil {
		t.Fatalf("no crew at the gate's leaf pair %d", helperGate)
	}
	e.dismiss()
	if e.crewed() {
		t.Fatal("a dismissed crew restarted")
	}
}

// faultReader is a PageReader that runs hook before each read and fails
// every read once fail is set.
type faultReader struct {
	reads int
	hook  func(reads int)
	fail  bool
}

var errDeadSector = errors.New("dead sector")

func (f *faultReader) ReadPage(storage.PageID, []byte) ([]byte, error) {
	f.reads++
	if f.hook != nil {
		f.hook(f.reads)
	}
	if f.fail {
		return nil, errDeadSector
	}
	return nil, nil
}

// waitGoroutines waits until the goroutine count is back to base: the
// helpers of a stopped join finish the job they hold and leave.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the join", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// isPrefix reports whether a is a prefix of b.
func isPrefix(a, b []Pair) bool {
	return len(a) <= len(b) && slices.Equal(a, b[:len(a)])
}

// TestHelpersStopCleanly stops joins whose helpers run from the first leaf
// pair — a context cancelled mid-join, a page-read fault, and a fault that
// starts once OnPair has seen a pair (the server's retry case) — for the
// sweep joins and for kNN.  Each must return its typed error and no Result,
// OnPair must have seen only a prefix of the inline sequence, and the
// goroutine count must come back to where it was.
func TestHelpersStopCleanly(t *testing.T) {
	sweepR, sweepS := ledgerJoinPair(t)
	knnR, knnS := ledgerKNNPair(t, 2000, 2000, 1)
	knnOpts := ledgerKNNOptions()
	knnOpts.DiscardPairs = false
	cases := []struct {
		name string
		r, s *rtree.Tree
		opts Options
	}{
		{"SJ4", sweepR, sweepS, ledgerJoinOptions(SJ4)},
		{"SJ5/within", sweepR, sweepS, Options{Method: SJ5, BufferBytes: 128 << 10, Predicate: WithinDistance(0.002)}},
		{"knn", knnR, knnS, knnOpts},
	}
	for _, c := range cases {
		withHelpers(t, 0)
		inline := joinObserved(c.r, c.s, c.opts, "onpair")
		if inline.err != nil {
			t.Fatal(inline.err)
		}
		withHelpers(t, maxHelpers)

		for _, stop := range []string{"cancel", "fault", "fault after a pair"} {
			if stop == "fault after a pair" && c.opts.Predicate.Kind == PredKNN {
				continue // kNN emits once its traversal is done
			}
			t.Run(c.name+"/"+stop, func(t *testing.T) {
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rd := &faultReader{}
				opts := c.opts
				opts.Context = ctx
				opts.PageReaderR = rd
				var seq []Pair
				opts.OnPair = func(p Pair) {
					seq = append(seq, p)
					if stop == "fault after a pair" {
						rd.fail = true
					}
				}
				// Stop a third of the way through the inline join's reads.
				stopAt := int(inline.res.Metrics.DiskReads / 6)
				switch stop {
				case "cancel":
					rd.hook = func(n int) {
						if n == stopAt {
							cancel()
						}
					}
				case "fault":
					rd.hook = func(n int) { rd.fail = rd.fail || n == stopAt }
				}
				res, err := Join(c.r, c.s, opts)
				if res != nil {
					t.Fatal("a stopped join returned a result")
				}
				switch stop {
				case "cancel":
					if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
						t.Fatalf("want ErrCancelled wrapping context.Canceled, got %v", err)
					}
				default:
					if !errors.Is(err, errDeadSector) {
						t.Fatalf("want the read fault, got %v", err)
					}
				}
				if !isPrefix(seq, inline.seq) {
					t.Fatalf("OnPair saw %d pairs, not a prefix of the inline %d", len(seq), len(inline.seq))
				}
				if stop == "fault after a pair" && (len(seq) == 0 || len(seq) >= len(inline.seq)) {
					t.Fatalf("observer saw %d of %d pairs before the fault", len(seq), len(inline.seq))
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestWarmJoinPastTheGateAllocatesNoMore: a warm join whose helpers run from
// its first leaf pair allocates no more than the inline join — the ring, the
// helpers' scratch and the job buffers are pooled, and a helper starts
// without a closure.  Each side keeps its fewest allocations over five
// measurements: a garbage collection that empties the arena pool lands on
// one of them, an allocation per join on all.
func TestWarmJoinPastTheGateAllocatesNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for every goroutine it tracks")
	}
	r, s := ledgerJoinPair(t)
	knnR, knnS := ledgerKNNPair(t, 2000, 2000, 1)
	for _, c := range []struct {
		name string
		r, s *rtree.Tree
		opts Options
	}{
		{"SJ4", r, s, Options{Method: SJ4, BufferBytes: 128 << 10, UsePathBuffer: true, DiscardPairs: true}},
		{"knn", knnR, knnS, ledgerKNNOptions()},
	} {
		allocs := func(n int) float64 {
			withHelpers(t, n)
			return testing.AllocsPerRun(20, func() {
				if _, err := Join(c.r, c.s, c.opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		inline, helped := math.Inf(1), math.Inf(1)
		for range 5 {
			inline = min(inline, allocs(0))
			helped = min(helped, allocs(1))
		}
		if helped > inline {
			t.Errorf("%s: %.0f allocations per join with a helper, %.0f inline", c.name, helped, inline)
		}
	}
}
