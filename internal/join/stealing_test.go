package join

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// These tests are the race wall of the stealing scheduler: they hammer the
// queue operations from many goroutines and check the exactly-once delivery
// invariant that the join's correctness rests on.  CI runs them under -race.

// TestStealQueuesConcurrentExactlyOnce runs the real worker loop shape —
// pop-own-queue-then-steal — over many goroutines and asserts that every
// task is delivered to exactly one worker, whatever interleaving the
// scheduler produces.
func TestStealQueuesConcurrentExactlyOnce(t *testing.T) {
	for _, cfg := range []struct{ workers, tasks int }{
		{2, 64}, {4, 400}, {8, 1000}, {16, 97},
	} {
		est := make([]float64, cfg.tasks)
		for i := range est {
			est[i] = 1 + float64(i%13)
		}
		schedule := make([][]int32, cfg.workers)
		for i := 0; i < cfg.tasks; i++ {
			w := i * cfg.workers / cfg.tasks
			schedule[w] = append(schedule[w], int32(i))
		}
		queues := newStealQueues(schedule, est)

		counts := make([]atomic.Int32, cfg.tasks)
		flight := newStealFlight()
		var wg sync.WaitGroup
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				q := queues[w]
				var buf []int32
				for {
					i, ok := q.pop(est)
					if !ok {
						if !steal(queues, w, &buf, est, flight) {
							return
						}
						continue
					}
					counts[i].Add(1)
				}
			}(w)
		}
		wg.Wait()

		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d tasks=%d: task %d executed %d times", cfg.workers, cfg.tasks, i, got)
			}
		}
		for w, q := range queues {
			if q.remainingApprox() != 0 {
				t.Errorf("workers=%d: queue %d reports %.3f remaining load after drain",
					cfg.workers, w, q.remainingApprox())
			}
		}
	}
}

// TestStealingJoinUnderContention runs the full ParallelJoin with the
// stealing strategy repeatedly and concurrently with itself on the same
// trees (trees are read-only during joins), so the race detector sees the
// queues, the worker pools and the catalog-statistics cache under real
// contention.  Every run must reproduce the sequential result set.
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

// TestStealPicksMostLoadedVictim: the thief takes the tail half of the queue
// with the largest remaining estimate, never its own or a lighter one.
func TestStealPicksMostLoadedVictim(t *testing.T) {
	est := []float64{1, 1, 1, 1, 5, 5, 5, 5}
	queues := newStealQueues([][]int32{{}, {0, 1, 2, 3}, {4, 5, 6, 7}}, est)
	var buf []int32
	if !steal(queues, 0, &buf, est, newStealFlight()) {
		t.Fatal("steal found nothing with two loaded victims")
	}
	if got := queues[0].tasks; len(got) != 2 || got[0] != 6 || got[1] != 7 {
		t.Fatalf("thief installed %v, want the heavier victim's tail [6 7]", got)
	}
	if queues[1].remainingApprox() != 4 || queues[2].remainingApprox() != 10 {
		t.Fatalf("victim loads %.0f / %.0f after the steal, want 4 / 10",
			queues[1].remainingApprox(), queues[2].remainingApprox())
	}
	if queues[0].steals != 1 || queues[0].stolenTasks != 2 {
		t.Fatalf("steal accounting %d steals / %d tasks, want 1 / 2", queues[0].steals, queues[0].stolenTasks)
	}
}

// TestStealFlightSettle: a thief that finds nothing stealable must give up
// only when no run is in transit, and must wake (to rescan) when one lands.
func TestStealFlightSettle(t *testing.T) {
	f := newStealFlight()
	if f.settle() {
		t.Fatal("settle with nothing in transit must be final")
	}
	f.begin()
	woke := make(chan bool)
	go func() { woke <- f.settle() }()
	select {
	case <-woke:
		t.Fatal("settle returned while a run was in transit")
	case <-time.After(50 * time.Millisecond):
	}
	f.finishMove()
	select {
	case again := <-woke:
		if !again {
			t.Fatal("settle after a landing must request a rescan")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("settle did not wake on landing")
	}
}
