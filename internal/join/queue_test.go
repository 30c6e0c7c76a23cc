package join

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// These tests are the race wall of the parallel executor: the shared cursor
// of PartitionStealing, the per-worker runs of PartitionSpatial and the
// join-wide stop.  CI runs them under -race.

// plannedTasks repeats ParallelJoin's intersection planning: the qualifying
// root pairs, split one level deeper while there are fewer than minTasks.
func plannedTasks(r, s *rtree.Tree, minTasks int) int {
	tasks := planTasks(r, s)
	var plan metrics.Local
	var sc splitScratch
	tracker := buffer.NewTracker(nil, metrics.NewCollector(), r.PageSize(), false)
	for len(tasks) > 0 && len(tasks) < minTasks {
		split, ok := splitTasks(r, s, tasks, tracker, &plan, &sc, 0)
		if !ok {
			break
		}
		tasks = split
	}
	return len(tasks)
}

// TestSharedQueueRunsThePlan checks both strategies at 1 to 8 workers: the
// workers run every planned task exactly once between them, no spatial
// worker runs a task planned for another, and the pair set is Join's.
func TestSharedQueueRunsThePlan(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	opts := Options{Method: SJ4, BufferBytes: 64 << 10, UsePathBuffer: true}
	seq, err := Join(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := sortedPairHash(seq.Pairs)
	const perWorker = 4
	for workers := 1; workers <= 8; workers++ {
		planned := plannedTasks(r, s, workers*perWorker)
		for _, strategy := range PartitionStrategies {
			label := fmt.Sprintf("%v/workers=%d", strategy, workers)
			res, err := ParallelJoin(r, s, ParallelOptions{
				Options: opts, Workers: workers, Strategy: strategy, MinTasksPerWorker: perWorker,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ran := 0
			for _, n := range res.WorkerTasks {
				ran += n
			}
			if ran != planned {
				t.Errorf("%s: workers ran %d tasks, the plan has %d", label, ran, planned)
			}
			if strategy == PartitionSpatial && res.StolenTasks != 0 {
				t.Errorf("%s: %d tasks ran off their planned worker", label, res.StolenTasks)
			}
			if got := sortedPairHash(res.Pairs); got != wantHash || res.Count != seq.Count {
				t.Errorf("%s: pair set differs from Join's (count %d vs %d)", label, res.Count, seq.Count)
			}
		}
	}
}

// TestStealingJoinUnderContention runs the full ParallelJoin with the
// stealing strategy repeatedly and concurrently with itself on the same
// trees (trees are read-only during joins), so the race detector sees the
// shared cursor, the worker pools and the catalog-statistics cache under
// real contention.  Every run must reproduce the sequential result set.
func TestStealingJoinUnderContention(t *testing.T) {
	r, s, _, _ := buildPair(t, 2000, 2000, storage.PageSize1K)
	seq, err := Join(r, s, Options{Method: SJ4, BufferBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	wantHash := sortedPairHash(seq.Pairs)

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := ParallelJoin(r, s, ParallelOptions{
					Options:           Options{Method: SJ4, BufferBytes: 64 << 10},
					Workers:           4,
					Strategy:          PartitionStealing,
					MinTasksPerWorker: 6,
				})
				if err != nil {
					errs <- err
					return
				}
				if got := sortedPairHash(res.Pairs); got != wantHash || res.Count != seq.Count {
					t.Errorf("stealing join diverged: count %d vs %d, hash %d vs %d",
						res.Count, seq.Count, got, wantHash)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// sharedFaultReader is a PageReader safe for concurrent workers: it counts
// every read and fails the failAt-th one only, so reads made after the
// fault show up in the count.
type sharedFaultReader struct {
	reads  atomic.Int64
	failAt int64
}

func (f *sharedFaultReader) ReadPage(storage.PageID, []byte) ([]byte, error) {
	if f.reads.Add(1) == f.failAt {
		return nil, errDeadSector
	}
	return nil, nil
}

// TestReadFaultStopsEveryWorker: a physical read fault in one worker stops
// every worker of a ParallelJoin, as it stops Join.  The join returns the
// typed error and no Result, each worker makes at most one node pair's
// reads after the fault (the read it had in flight), and the goroutine count
// comes back to where it was.
func TestReadFaultStopsEveryWorker(t *testing.T) {
	r, s := ledgerJoinPair(t)
	for _, strategy := range PartitionStrategies {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", strategy, workers), func(t *testing.T) {
				popts := ParallelOptions{Options: ledgerJoinOptions(SJ4), Workers: workers, Strategy: strategy}
				clean := &sharedFaultReader{}
				popts.Options.PageReaderR = clean
				ref, err := ParallelJoin(r, s, popts)
				if err != nil {
					t.Fatal(err)
				}
				// Fail a sixth of the way through the R reads, past every
				// read the planner made.
				rd := &sharedFaultReader{failAt: clean.reads.Load() / 6}
				if rd.failAt <= ref.PlanMetrics.DiskReads {
					t.Fatalf("fault at read %d falls in planning (%d plan reads)", rd.failAt, ref.PlanMetrics.DiskReads)
				}
				popts.Options.PageReaderR = rd
				base := runtime.NumGoroutine()
				res, err := ParallelJoin(r, s, popts)
				if res != nil {
					t.Fatal("a failed join returned a result")
				}
				if !errors.Is(err, errDeadSector) {
					t.Fatalf("want the read fault, got %v", err)
				}
				if after := rd.reads.Load() - rd.failAt; after > int64(2*workers) {
					t.Errorf("%d physical reads after the fault, at most %d allowed", after, 2*workers)
				}
				waitGoroutines(t, base)
			})
		}
	}
}
