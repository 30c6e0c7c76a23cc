package join

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/sweep"
)

// frame is the scratch space one recursion depth of the synchronized descent
// needs: the restricted entry indices of both nodes, the gathered rectangle
// sequences for the plane sweep, the qualifying pairs, and the bookkeeping of
// the pinning schedule.  Frames are reused across all node pairs visited at
// the same depth, so the steady-state join performs no allocations.
type frame struct {
	sweepScratch
	zkeys      []uint64
	processed  []bool
	degR, degS []int32
}

// sweepScratch holds the sweep of one node pair (sweepNodes): the restricted
// entries of both nodes in xl-order, their gathered rectangles, and the
// qualifying pairs.
type sweepScratch struct {
	rIdx, sIdx     []int32
	rRects, sRects []geom.Rect
	pairs          []sweep.Pair
}

// leafScratch is the scratch space of one runner of the leaf stage — the
// coordinator's lives in its arena, each helper's in the crew (helpers.go):
// the sweep of a leaf x leaf pair (joinLeaves) with the pairs it accepts,
// and the S-leaf MBRs and one item's leaf order of a kNN leaf group
// (leafGroup).
type leafScratch struct {
	sweepScratch
	out  []Pair
	mbrs []geom.Rect
	near []leafDist
}

// heightsScratch is the scratch space of joinLeafWithDirectory.  The routine
// never nests (it descends via window queries, not via itself), so one
// instance per executor suffices regardless of the depth it is entered at.
// batch carries the per-depth active sets of the batched subtree searches of
// policy (b), so a run issuing one batch search per directory entry stops
// allocating active sets per node visited.
type heightsScratch struct {
	leafIdx, dirIdx     []int32
	leafRects, dirRects []geom.Rect
	pairs               []sweep.Pair
	queries             []geom.Rect
	ids                 []int32
	// exact keeps the unexpanded leaf rectangles aligned with queries, so
	// the within-distance predicate can run its exact Euclidean test on the
	// original geometry when a batched window query reports a hit.
	exact []geom.Rect
	batch rtree.BatchScratch
}

// arena bundles all scratch buffers of one join run.  Arenas are recycled
// through a sync.Pool so repeated joins (benchmarks, experiment sweeps,
// parallel workers) reach a steady state without any per-run slice growth.
type arena struct {
	frames  []*frame
	leaf    leafScratch
	heights heightsScratch
	// chunks are the blocks of pairChunk pairs a sequential join collects its
	// result in (executor.emit); like the frames they are reused, so a
	// materialising join allocates its result once, at its final size.  A
	// pooled arena therefore holds the largest result it has collected (one
	// more copy of it) until a garbage collection clears the pool.
	chunks [][]Pair
}

// pairChunk is the capacity of one result chunk: 64 KiB of pairs.
const pairChunk = 1 << 13

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// frame returns the scratch frame for the given recursion depth, growing the
// per-depth list on first use (tree heights are single digits, so this
// settles after the first descent).
func (a *arena) frame(depth int) *frame {
	for len(a.frames) <= depth {
		a.frames = append(a.frames, new(frame))
	}
	return a.frames[depth]
}

// appendAllIdx appends 0..n-1 to idx, the no-restriction index set.
//
//repro:hotpath
func appendAllIdx(idx []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		idx = append(idx, int32(i))
	}
	return idx
}

// zkeySorter stable-sorts the qualifying pairs of one node pair by the
// z-order key of their intersection rectangles (SpatialJoin5's read
// schedule).  The z-order sort is a scheduling decision, not a cost the paper
// charges, so it counts nothing.
type zkeySorter struct {
	pairs []sweep.Pair
	zkeys []uint64
}

func (d *zkeySorter) Len() int { return len(d.pairs) }

func (d *zkeySorter) Less(i, j int) bool { return d.zkeys[i] < d.zkeys[j] }

func (d *zkeySorter) Swap(i, j int) {
	d.pairs[i], d.pairs[j] = d.pairs[j], d.pairs[i]
	d.zkeys[i], d.zkeys[j] = d.zkeys[j], d.zkeys[i]
}
