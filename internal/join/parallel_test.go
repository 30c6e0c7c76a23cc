package join

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func TestParallelJoinMatchesSequential(t *testing.T) {
	r, s, itemsR, itemsS := buildPair(t, 4000, 4000, storage.PageSize1K)
	want := bruteForce(itemsR, itemsS)

	for _, method := range []Method{SJ1, SJ4} {
		for _, workers := range []int{0, 1, 4} {
			res, err := ParallelJoin(r, s, ParallelOptions{
				Options: Options{Method: method, BufferBytes: 128 << 10, UsePathBuffer: true},
				Workers: workers,
			})
			if err != nil {
				t.Fatalf("%v/%d workers: %v", method, workers, err)
			}
			got := asPairSet(res.Pairs)
			if len(got) != len(want) {
				t.Fatalf("%v/%d workers: %d pairs, want %d", method, workers, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("%v/%d workers: missing pair %v", method, workers, p)
				}
			}
			if res.Metrics.Comparisons == 0 || res.Metrics.DiskReads == 0 {
				t.Fatalf("%v/%d workers: missing metrics", method, workers)
			}
			if workers > 1 {
				// Skew accessors are max/mean over the workers, so they are
				// at least 1 whenever any worker did the respective work.
				for name, skew := range map[string]float64{
					"task": res.TaskSkew(), "comp": res.ComparisonSkew(),
					"disk": res.DiskSkew(), "pair": res.PairSkew(),
				} {
					if skew < 1 {
						t.Errorf("%v/%d workers: %s skew %.3f < 1", method, workers, name, skew)
					}
				}
			}
		}
	}
}

func TestParallelJoinErrorsAndFallbacks(t *testing.T) {
	r, s, _, _ := buildPair(t, 500, 500, storage.PageSize1K)
	if _, err := ParallelJoin(nil, s, ParallelOptions{}); !errors.Is(err, ErrNilTree) {
		t.Fatalf("expected ErrNilTree, got %v", err)
	}
	other := rtree.MustNew(rtree.Options{PageSize: storage.PageSize2K})
	if _, err := ParallelJoin(r, other, ParallelOptions{}); !errors.Is(err, ErrPageSizeMismatch) {
		t.Fatalf("expected ErrPageSizeMismatch, got %v", err)
	}
	if _, err := ParallelJoin(r, s, ParallelOptions{Options: Options{Method: NestedLoop}}); !errors.Is(err, ErrParallelNestedLoop) {
		t.Fatalf("expected ErrParallelNestedLoop, got %v", err)
	}

	// Tiny trees (single leaf) fall back to the sequential join.
	tiny1 := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	tiny2 := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	tiny1.Insert(geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}, 1)
	tiny2.Insert(geom.Rect{XL: 0.5, YL: 0.5, XU: 2, YU: 2}, 2)
	res, err := ParallelJoin(tiny1, tiny2, ParallelOptions{Options: Options{Method: SJ4}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("tiny-tree fallback found %d pairs, want 1", res.Count)
	}
}

func TestParallelJoinStreamsPairs(t *testing.T) {
	r, s, _, _ := buildPair(t, 2000, 2000, storage.PageSize1K)
	streamed := 0
	res, err := ParallelJoin(r, s, ParallelOptions{
		Options: Options{
			Method:       SJ4,
			DiscardPairs: true,
			OnPair:       func(Pair) { streamed++ },
		},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 || streamed != res.Count || res.Count == 0 {
		t.Fatalf("streamed=%d count=%d pairs=%d", streamed, res.Count, len(res.Pairs))
	}
}

// TestParallelWorkers1MatchesSequentialDiskAccesses pins the planning-I/O
// fix: with one worker the parallel join reads the pages the sequential join
// reads — the plan tracker's buffer dedupes planning reads the way the
// sequential join's shared buffer would.  The documented delta: exactly zero
// once the buffer holds the working set (every distinct page is read once on
// either side, independent of task order); for smaller buffers the parallel
// task order differs from the sequential read schedule, so path-buffer hits
// and eviction order may shift the count by a handful of accesses.  Before
// the fix, any run whose planner split tasks over-counted by one read per
// extra qualifying pair (see TestParallelPlanningChargesNodesOnce).
func TestParallelWorkers1MatchesSequentialDiskAccesses(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	for _, method := range []Method{SJ1, SJ4} {
		for _, cfg := range []struct {
			bufferBytes int
			maxDelta    int64
		}{
			{0, 2},
			{32 << 10, 6},
			{128 << 10, 0},
			{512 << 10, 0},
		} {
			opts := Options{Method: method, BufferBytes: cfg.bufferBytes, UsePathBuffer: true, DiscardPairs: true}
			seq, err := Join(r, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			// With one worker the shared queue is the worker's own run, so it
			// degenerates to the spatial schedule and the same bounds apply.
			for _, strategy := range PartitionStrategies {
				par, err := ParallelJoin(r, s, ParallelOptions{Options: opts, Workers: 1, Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				delta := par.Metrics.DiskAccesses() - seq.Metrics.DiskAccesses()
				if delta < 0 {
					delta = -delta
				}
				if delta > cfg.maxDelta {
					t.Errorf("%v/%v buffer=%d: parallel workers=1 charged %d disk accesses, sequential %d (delta %d > %d)",
						method, strategy, cfg.bufferBytes, par.Metrics.DiskAccesses(), seq.Metrics.DiskAccesses(), delta, cfg.maxDelta)
				}
				if par.PlanMetrics.DiskReads != 2 {
					t.Errorf("%v/%v: planning with no split must read exactly the two roots, got %d",
						method, strategy, par.PlanMetrics.DiskReads)
				}
			}
		}
	}
}

// TestParallelPlanningChargesNodesOnce forces the planner to split tasks one
// level deeper and asserts that planning disk reads stay bounded by the
// number of distinct directory pages of the two trees.  The pre-fix
// bufferless plan tracker charged a child node once per qualifying pair it
// appeared in, which exceeds this bound as soon as entries qualify in more
// than one pair.
func TestParallelPlanningChargesNodesOnce(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	rootPairs := len(planTasks(r, s))
	if rootPairs < 2 {
		t.Fatalf("want at least 2 qualifying root pairs, got %d", rootPairs)
	}
	res, err := ParallelJoin(r, s, ParallelOptions{
		Options:  Options{Method: SJ4, BufferBytes: 128 << 10, UsePathBuffer: true, DiscardPairs: true},
		Workers:  rootPairs + 1, // more workers than root pairs forces a split
		Strategy: PartitionSpatial,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := 0
	for _, n := range res.WorkerTasks {
		tasks += n
	}
	if tasks <= rootPairs {
		t.Fatalf("planner did not split: %d tasks from %d root pairs", tasks, rootPairs)
	}
	maxDistinct := int64(r.Stats().DirPages + s.Stats().DirPages)
	if res.PlanMetrics.DiskReads > maxDistinct {
		t.Errorf("planning charged %d disk reads for at most %d distinct directory pages (over-count regression)",
			res.PlanMetrics.DiskReads, maxDistinct)
	}
	if got := res.Metrics.Sub(res.PlanMetrics).DiskReads; got <= 0 {
		t.Errorf("worker disk reads = %d, want > 0", got)
	}
}

// TestSpatialPartitionIsHostIndependent pins why PartitionSpatial survives
// next to stealing: its per-worker split is a property of the plan, not of
// the host.  Eight workers on one core and on four, twice each, must report
// bit-identical per-worker counters, task counts, estimates and planning
// costs — the contract the counted tables (time skew, est-speedup) rest on.
func TestSpatialPartitionIsHostIndependent(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Result
	for _, procs := range []int{1, 1, 4, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := ParallelJoin(r, s, ParallelOptions{
			Options:           Options{Method: SJ4, BufferBytes: 64 << 10, UsePathBuffer: true, DiscardPairs: true},
			Workers:           8,
			Strategy:          PartitionSpatial,
			MinTasksPerWorker: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			if len(ref.WorkerMetrics) != 8 {
				t.Fatalf("want 8 workers, got %d", len(ref.WorkerMetrics))
			}
			continue
		}
		if !reflect.DeepEqual(res.WorkerMetrics, ref.WorkerMetrics) ||
			!reflect.DeepEqual(res.WorkerTasks, ref.WorkerTasks) ||
			!reflect.DeepEqual(res.WorkerEstSeconds, ref.WorkerEstSeconds) ||
			res.PlanMetrics != ref.PlanMetrics {
			t.Fatalf("GOMAXPROCS=%d changed the spatial split:\ntasks %v vs %v\nest %v vs %v",
				procs, res.WorkerTasks, ref.WorkerTasks, res.WorkerEstSeconds, ref.WorkerEstSeconds)
		}
	}
}

// TestWorkerBufferHitRatesNaNFree pins the divide-by-zero fix: a worker with
// no node accesses (one that took no task from the shared queue, or only
// non-intersecting pairs) must report hit rate 0, not NaN, both per worker
// and in the aggregate.
func TestWorkerBufferHitRatesNaNFree(t *testing.T) {
	res := &Result{WorkerMetrics: make([]metrics.Snapshot, 3)}
	res.WorkerMetrics[1] = metrics.Snapshot{BufferHits: 3, DiskReads: 1}
	if got := res.WorkerBufferHitRate(); got != 0.75 {
		t.Errorf("aggregate hit rate = %v, want 0.75", got)
	}
	rates := res.WorkerBufferHitRates()
	if len(rates) != 3 {
		t.Fatalf("got %d rates, want 3", len(rates))
	}
	for i, rate := range rates {
		if rate != rate { // NaN check
			t.Errorf("worker %d: hit rate is NaN", i)
		}
	}
	if rates[0] != 0 || rates[2] != 0 {
		t.Errorf("idle workers must report 0, got %v", rates)
	}
	if rates[1] != 0.75 {
		t.Errorf("worker 1 hit rate = %v, want 0.75", rates[1])
	}

	// All-idle aggregate: still 0, never 0/0.
	empty := &Result{WorkerMetrics: make([]metrics.Snapshot, 2)}
	if got := empty.WorkerBufferHitRate(); got != 0 {
		t.Errorf("all-idle aggregate = %v, want 0", got)
	}
	if got := empty.WorkerBufferHitRates(); got[0] != 0 || got[1] != 0 {
		t.Errorf("all-idle per-worker rates = %v, want zeros", got)
	}
	if (&Result{}).WorkerBufferHitRates() != nil {
		t.Error("sequential result must report nil per-worker rates")
	}

	// End to end: a real stealing run must produce finite rates for every
	// worker, however the shared queue split the tasks.
	r, s, _, _ := buildPair(t, 1500, 1500, storage.PageSize1K)
	res2, err := ParallelJoin(r, s, ParallelOptions{
		Options:           Options{Method: SJ4, BufferBytes: 32 << 10, DiscardPairs: true},
		Workers:           8,
		Strategy:          PartitionStealing,
		MinTasksPerWorker: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w, rate := range res2.WorkerBufferHitRates() {
		if rate != rate || rate < 0 || rate > 1 {
			t.Errorf("worker %d: hit rate %v outside [0,1]", w, rate)
		}
	}
}

func TestSortMergeJoinMatchesBruteForce(t *testing.T) {
	_, _, itemsR, itemsS := buildPair(t, 3000, 3000, storage.PageSize1K)
	want := bruteForce(itemsR, itemsS)
	res := SortMergeJoin(itemsR, itemsS, nil)
	got := asPairSet(res.Pairs)
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing pair %v", p)
		}
	}
	if res.Metrics.SortComparisons == 0 || res.Metrics.Comparisons == 0 {
		t.Fatal("sort-merge join must charge sorting and join comparisons")
	}
	if res.Metrics.DiskReads != 0 {
		t.Fatal("sort-merge join charges no I/O")
	}
	if res.Count != len(res.Pairs) {
		t.Fatal("count mismatch")
	}
}

func TestSortMergeJoinEmpty(t *testing.T) {
	res := SortMergeJoin(nil, nil, nil)
	if res.Count != 0 {
		t.Fatalf("empty join produced %d pairs", res.Count)
	}
}
