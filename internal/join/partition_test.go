package join

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// planTasks reproduces the planner's first enumeration step: all pairs of
// root entries whose rectangles intersect.
func planTasks(r, s *rtree.Tree) []parallelTask {
	var tasks []parallelTask
	for _, er := range r.Root().Entries {
		for _, es := range s.Root().Entries {
			if er.Rect.Intersects(es.Rect) {
				tasks = append(tasks, parallelTask{er: er, es: es})
			}
		}
	}
	return tasks
}

// checkSchedule asserts that a schedule is a partition of all task indices
// with every worker non-empty.
func checkSchedule(t *testing.T, schedule [][]int32, tasks, workers int) {
	t.Helper()
	if len(schedule) != workers {
		t.Fatalf("schedule has %d workers, want %d", len(schedule), workers)
	}
	seen := make(map[int32]bool, tasks)
	for w, idxs := range schedule {
		if len(idxs) == 0 {
			t.Errorf("worker %d received no tasks", w)
		}
		for _, i := range idxs {
			if i < 0 || int(i) >= tasks {
				t.Fatalf("worker %d: index %d out of range [0,%d)", w, i, tasks)
			}
			if seen[i] {
				t.Fatalf("task %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != tasks {
		t.Fatalf("schedule covers %d of %d tasks", len(seen), tasks)
	}
}

func TestBuildScheduleCoversAllTasks(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	tasks := planTasks(r, s)
	if len(tasks) < 4 {
		t.Fatalf("want at least 4 root tasks, got %d", len(tasks))
	}
	vecs := newTaskEstimator(r, s, Intersects()).vectors(tasks)
	for _, workers := range []int{1, 2, 3, len(tasks)} {
		checkSchedule(t, scheduleSpatial(r, s, tasks, vecs, workers), len(tasks), workers)
	}
	if _, err := ParallelJoin(r, s, ParallelOptions{
		Options:  Options{Method: SJ4},
		Strategy: PartitionStrategy(99),
	}); !errors.Is(err, ErrUnknownPartitionStrategy) {
		t.Fatalf("unknown strategy must be rejected, got %v", err)
	}
}

func TestBuildScheduleIsDeterministic(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	tasks := planTasks(r, s)
	a := scheduleSpatial(r, s, tasks, newTaskEstimator(r, s, Intersects()).vectors(tasks), 4)
	b := scheduleSpatial(r, s, tasks, newTaskEstimator(r, s, Intersects()).vectors(tasks), 4)
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("worker %d sizes differ between runs", w)
		}
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				t.Fatalf("worker %d schedule differs between runs", w)
			}
		}
	}
}

// TestSpatialScheduleIsHilbertContiguous checks the locality property of the
// spatial strategy: the Hilbert order of the task list is cut into
// workers × spatialRegionsPerWorker contiguous regions, every worker's task
// list is exactly the concatenation of the regions the vector packing gave
// it, and so forms no more Hilbert runs than it holds regions.  How many
// regions one worker receives is the packing's choice and is not capped.
func TestSpatialScheduleIsHilbertContiguous(t *testing.T) {
	r, s, _, _ := buildPair(t, 4000, 4000, storage.PageSize1K)
	tasks := planTasks(r, s)
	// The root level yields a handful of tasks; split one level deeper so
	// the regions have something to tile, as the planner itself does.
	var plan metrics.Local
	tracker := buffer.NewTracker(nil, metrics.NewCollector(), r.PageSize(), false)
	tasks, ok := splitTasks(r, s, tasks, tracker, &plan, &splitScratch{}, 0)
	if !ok {
		t.Fatal("expected the root tasks to be splittable")
	}
	workers := 4
	if len(tasks) < workers*spatialRegionsPerWorker {
		t.Fatalf("want at least %d tasks, got %d", workers*spatialRegionsPerWorker, len(tasks))
	}
	vecs := newTaskEstimator(r, s, Intersects()).vectors(tasks)
	schedule := scheduleSpatial(r, s, tasks, vecs, workers)
	checkSchedule(t, schedule, len(tasks), workers)

	world := jointWorld(r, s)
	keys := make([]uint64, len(tasks))
	for i, task := range tasks {
		rect := task.er.Rect
		if inter, ok := task.er.Rect.Intersection(task.es.Rect); ok {
			rect = inter
		}
		keys[i] = zorder.HilbertKey(rect.Center(), world)
	}
	// Reconstruct each task's rank in the Hilbert order the scheduler used.
	order := make([]int32, len(tasks))
	for i := range order {
		order[i] = int32(i)
	}
	sortStableByKey := func() {
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && (keys[order[j]] < keys[order[j-1]] ||
				(keys[order[j]] == keys[order[j-1]] && order[j] < order[j-1])); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	sortStableByKey()
	rank := make([]int, len(tasks))
	for r, i := range order {
		rank[i] = r
	}
	// Recut the Hilbert order into the regions and repack them; every
	// worker's list must be exactly its packed regions, concatenated.
	regions := contiguousSplit(order, scalars(vecs), workers*spatialRegionsPerWorker)
	loads := make([]costVec, len(regions))
	for i, region := range regions {
		for _, task := range region {
			loads[i] = loads[i].add(vecs[task])
		}
	}
	for w, packed := range packRegionsVector(loads, workers) {
		var want []int32
		for _, region := range packed {
			want = append(want, regions[region]...)
		}
		if !slices.Equal(schedule[w], want) {
			t.Errorf("worker %d: task list is not the concatenation of its %d packed regions", w, len(packed))
			continue
		}
		runs := 1
		for k := 1; k < len(want); k++ {
			if rank[want[k]] != rank[want[k-1]]+1 {
				runs++
			}
		}
		if runs > len(packed) {
			t.Errorf("worker %d: %d tasks form %d Hilbert runs, want at most its %d regions",
				w, len(want), runs, len(packed))
		}
	}
}

// TestContiguousSplitProperties pins the invariants of the spatial cut with
// testing/quick: for arbitrary non-negative estimates and any feasible bin
// count, the concatenation of the bins is exactly the input order (every
// task scheduled exactly once, prefix structure preserved, no duplicates)
// and no bin is empty.
func TestContiguousSplitProperties(t *testing.T) {
	f := func(raw []uint16, binSeed uint8) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		est := make([]float64, n)
		order := make([]int32, n)
		for i, v := range raw {
			est[i] = float64(v) / 16 // non-negative, zeros allowed
			order[i] = int32(i)
		}
		bins := 1 + int(binSeed)%n
		split := contiguousSplit(order, est, bins)
		if len(split) != bins {
			return false
		}
		pos := 0
		for _, run := range split {
			if len(run) == 0 {
				return false
			}
			for _, i := range run {
				if pos >= n || order[pos] != i {
					return false
				}
				pos++
			}
		}
		return pos == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionStrategyString(t *testing.T) {
	want := map[PartitionStrategy]string{
		PartitionStealing:     "stealing",
		PartitionSpatial:      "spatial",
		PartitionStrategy(42): "PartitionStrategy(42)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), str)
		}
	}
	// Stealing is the default: a zero ParallelOptions must steal.
	if (ParallelOptions{}).Strategy != PartitionStealing {
		t.Error("the zero strategy must be PartitionStealing")
	}
}

func TestSortPairs(t *testing.T) {
	pairs := []Pair{{R: 2, S: 1}, {R: 1, S: 2}, {R: 1, S: 1}, {R: 2, S: 0}}
	SortPairs(pairs)
	want := []Pair{{R: 1, S: 1}, {R: 1, S: 2}, {R: 2, S: 0}, {R: 2, S: 1}}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
}
