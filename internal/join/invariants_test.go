package join

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

// sortedPairHash returns the order-insensitive golden hash of a result set:
// the FNV-1a fold of the pairs after SortPairs.  The pairs slice is sorted
// in place.
func sortedPairHash(pairs []Pair) uint64 {
	SortPairs(pairs)
	h := uint64(14695981039346656037)
	for _, p := range pairs {
		h = (h ^ uint64(uint32(p.R))) * 1099511628211
		h = (h ^ uint64(uint32(p.S))) * 1099511628211
	}
	return h
}

// checkParallelAgainst runs ParallelJoin in both pair modes (materialised
// and OnPair+DiscardPairs) and checks the result-set invariants against the
// sequential golden hash and count.
func checkParallelAgainst(t *testing.T, label string, wantHash uint64, wantCount int,
	run func(onPair func(Pair), discard bool) (*Result, error)) {
	t.Helper()

	// Materialised pairs: sorted set equals the sequential result, and the
	// count matches the materialisation.
	res, err := run(nil, false)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Count != len(res.Pairs) {
		t.Errorf("%s: Count=%d but %d pairs materialised", label, res.Count, len(res.Pairs))
	}
	if got := sortedPairHash(res.Pairs); got != wantHash || res.Count != wantCount {
		t.Errorf("%s: materialised result differs from sequential join (count %d vs %d, hash %d vs %d)",
			label, res.Count, wantCount, got, wantHash)
	}

	// Streaming: OnPair with DiscardPairs sees the same set, with nothing
	// materialised.
	var streamed []Pair
	res, err = run(func(p Pair) { streamed = append(streamed, p) }, true)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(res.Pairs) != 0 {
		t.Errorf("%s: DiscardPairs materialised %d pairs", label, len(res.Pairs))
	}
	if res.Count != len(streamed) {
		t.Errorf("%s: Count=%d but %d pairs streamed", label, res.Count, len(streamed))
	}
	if got := sortedPairHash(streamed); got != wantHash {
		t.Errorf("%s: streamed result differs from sequential join (hash %d vs %d)", label, got, wantHash)
	}
}

// TestParallelJoinInvariants checks result-set equality of ParallelJoin with
// the sequential join over the full matrix: every tree algorithm SJ1-SJ5,
// both partition strategies, and both pair modes.  Equality is by sorted-pair golden hash, since the
// parallel pair order is schedule-dependent.
func TestParallelJoinInvariants(t *testing.T) {
	r, s, _, _ := buildPair(t, 1500, 1500, storage.PageSize1K)
	for _, method := range Methods {
		opts := Options{Method: method, BufferBytes: 64 << 10, UsePathBuffer: true, DiscardPairs: true}
		seq, err := Join(r, s, Options{Method: method, BufferBytes: 64 << 10, UsePathBuffer: true})
		if err != nil {
			t.Fatal(err)
		}
		wantHash := sortedPairHash(seq.Pairs)
		for _, strategy := range PartitionStrategies {
			label := fmt.Sprintf("%v/%v", method, strategy)
			checkParallelAgainst(t, label, wantHash, seq.Count,
				func(onPair func(Pair), discard bool) (*Result, error) {
					o := opts
					o.OnPair = onPair
					o.DiscardPairs = discard
					return ParallelJoin(r, s, ParallelOptions{Options: o, Workers: 4, Strategy: strategy})
				})
		}
	}
}

// TestStealingJoinInvariants is the shared queue's own wall: SJ1-SJ5,
// worker counts 1, 2 and 8, both pair modes and a fine task granularity so
// that workers take many tasks off their planned run — the result set must
// equal the sequential join's in every cell no matter how the workers
// interleave on the cursor.  CI runs the package under -race, which turns
// this into the shared queue's data-race wall.
func TestStealingJoinInvariants(t *testing.T) {
	r, s, _, _ := buildPair(t, 1500, 1500, storage.PageSize1K)
	for _, method := range Methods {
		seq, err := Join(r, s, Options{Method: method, BufferBytes: 64 << 10, UsePathBuffer: true})
		if err != nil {
			t.Fatal(err)
		}
		wantHash := sortedPairHash(seq.Pairs)
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%v/stealing/workers=%d", method, workers)
			checkParallelAgainst(t, label, wantHash, seq.Count,
				func(onPair func(Pair), discard bool) (*Result, error) {
					o := Options{Method: method, BufferBytes: 64 << 10, UsePathBuffer: true,
						OnPair: onPair, DiscardPairs: discard}
					return ParallelJoin(r, s, ParallelOptions{
						Options:           o,
						Workers:           workers,
						Strategy:          PartitionStealing,
						MinTasksPerWorker: 4,
					})
				})
		}
	}
}

// TestStealingExecutesEveryTaskOnce checks the scheduling invariant behind
// the result-set equality: across all workers exactly len(tasks) sub-joins
// run, no matter how the shared cursor spread them over the workers.
func TestStealingExecutesEveryTaskOnce(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	for _, workers := range []int{2, 4, 8} {
		ref, err := ParallelJoin(r, s, ParallelOptions{
			Options:           Options{Method: SJ4, BufferBytes: 64 << 10, DiscardPairs: true},
			Workers:           workers,
			Strategy:          PartitionSpatial,
			MinTasksPerWorker: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ParallelJoin(r, s, ParallelOptions{
			Options:           Options{Method: SJ4, BufferBytes: 64 << 10, DiscardPairs: true},
			Workers:           workers,
			Strategy:          PartitionStealing,
			MinTasksPerWorker: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, got := 0, 0
		for _, n := range ref.WorkerTasks {
			want += n
		}
		for _, n := range res.WorkerTasks {
			got += n
		}
		if got != want {
			t.Errorf("workers=%d: stealing executed %d tasks, spatial schedule has %d", workers, got, want)
		}
		if ref.StolenTasks != 0 {
			t.Errorf("workers=%d: spatial ran %d tasks off their planned worker", workers, ref.StolenTasks)
		}
		if res.StolenTasks < 0 || res.StolenTasks > got {
			t.Errorf("workers=%d: StolenTasks=%d outside [0, %d]", workers, res.StolenTasks, got)
		}
	}
}

// TestParallelJoinInvariantsHeights runs the same invariants on trees of
// different heights, sweeping the section-4.4 height policies against both
// partition strategies.
func TestParallelJoinInvariantsHeights(t *testing.T) {
	r, s := buildHeightPair(t)
	for _, policy := range []HeightPolicy{PolicyWindowPerPair, PolicyBatchedWindows, PolicySweepOrder} {
		opts := Options{Method: SJ4, BufferBytes: 32 << 10, UsePathBuffer: true, HeightPolicy: policy}
		seq, err := Join(r, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantHash := sortedPairHash(seq.Pairs)
		for _, strategy := range PartitionStrategies {
			label := fmt.Sprintf("heights/%v/%v", policy, strategy)
			checkParallelAgainst(t, label, wantHash, seq.Count,
				func(onPair func(Pair), discard bool) (*Result, error) {
					o := opts
					o.OnPair = onPair
					o.DiscardPairs = discard
					return ParallelJoin(r, s, ParallelOptions{Options: o, Workers: 3, Strategy: strategy})
				})
		}
	}
}
