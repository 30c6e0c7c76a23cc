package repro

import (
	"fmt"
	"testing"
)

// TestLargeJoinVectorPackingSkew pins the ROADMAP 5(a) fix at size: packing
// the spatial regions on (io, cpu) cost vectors with a max-of-components
// objective must hold both the per-worker comparison skew and the per-worker
// time skew at or under 1.10 on the 120k-rect pair at 8 workers.  The
// scalar-seconds packing it replaces left the comparison skew at ~1.15 here:
// the totals balanced, but one worker collected the comparison-heavy tasks
// while another absorbed the I/O.
//
// Only SpatialPartition is held to the bound.  Counted balance is the static
// schedule's contract; stealing is judged by wall clock.  Its workers take
// tasks from the shared queue at the host's pace, so 8 workers on a 2-core
// host split the tasks by who got the cores and its counted time skew is a
// host measurement, while the spatial schedule reads 1.05 on any host.
func TestLargeJoinVectorPackingSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 120k-rect tree family in -short mode")
	}
	r, s := largeTreesForBench()
	model := DefaultCostModel()
	const maxSkew = 1.10
	for _, strategy := range []PartitionStrategy{SpatialPartition} {
		t.Run(fmt.Sprintf("strategy=%v", strategy), func(t *testing.T) {
			res, err := ParallelTreeJoin(r, s, ParallelJoinOptions{
				Options: JoinOptions{
					Method:        SpatialJoin4,
					BufferBytes:   1 << 20,
					UsePathBuffer: true,
					DiscardPairs:  true,
				},
				Workers:           8,
				Strategy:          strategy,
				MinTasksPerWorker: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count == 0 {
				t.Fatal("empty result")
			}
			if skew := res.ComparisonSkew(); skew > maxSkew {
				t.Errorf("comparison skew %.4f exceeds %.2f", skew, maxSkew)
			}
			if skew := res.TimeSkew(model, r.PageSize()); skew > maxSkew {
				t.Errorf("time skew %.4f exceeds %.2f", skew, maxSkew)
			}
		})
	}
}
