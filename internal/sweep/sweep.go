// Package sweep implements the SortedIntersectionTest of section 4.2 of the
// paper: given two sequences of rectangles, each sorted by the lower x-corner
// of its rectangles, it reports all intersecting pairs by moving a sweep line
// from left to right using only two pointers and no additional dynamic data
// structures.
//
// The algorithm runs in O(|R| + |S| + k_x) time where k_x is the number of
// pairs whose x-projections intersect.  Its output order ("local plane-sweep
// order") doubles as the read schedule of SpatialJoin3/4.
//
//repro:measured
package sweep

import (
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/metrics"
)

// Pair identifies one rectangle of the R sequence and one of the S sequence
// by their positions in the input slices.  The positions are 32 bits wide,
// like the object identifiers of a relation: the join sweeps node-sized
// sequences millions of times and stores a Pair per position it looks at.
type Pair struct {
	R, S int32
}

// SortByXL sorts rects in place by their lower x-corner and charges the
// comparisons performed to the collector's sorting counter (the "sorting" row
// of the paper's Table 4).  The permutation applied to rects is returned so
// callers can reorder parallel slices.
func SortByXL(rects []geom.Rect, m *metrics.Collector) []int {
	perm := make([]int, len(rects))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		m.AddSortComparisons(1)
		return rects[perm[i]].XL < rects[perm[j]].XL
	})
	applyPermutation(rects, perm)
	return perm
}

// applyPermutation reorders rects so that rects[i] becomes old rects[perm[i]].
func applyPermutation(rects []geom.Rect, perm []int) {
	out := make([]geom.Rect, len(rects))
	for i, p := range perm {
		out[i] = rects[p]
	}
	copy(rects, out)
}

// IsSortedByXL reports whether rects is sorted by the lower x-corner.
func IsSortedByXL(rects []geom.Rect) bool {
	return sort.SliceIsSorted(rects, func(i, j int) bool { return rects[i].XL < rects[j].XL })
}

// SortedIntersectionTest reports every intersecting pair between rseq and
// sseq to emit, in local plane-sweep order.  Both sequences must already be
// sorted by the lower x-corner (use SortByXL).  Floating-point comparisons
// spent on the sweep (x-axis scans and y-interval tests) are charged to c;
// both *metrics.Collector and *metrics.Local satisfy the interface.
//
// The implementation follows the paper's two-procedure formulation: the outer
// loop advances the sweep line to the unprocessed rectangle with the smallest
// xl value; InternalLoop then scans the other sequence from its first
// unprocessed rectangle until the x-projections no longer overlap.
func SortedIntersectionTest(rseq, sseq []geom.Rect, c geom.ComparisonCounter, emit func(Pair)) {
	i, j := 0, 0
	for i < len(rseq) && j < len(sseq) {
		if geom.CompareCounted(rseq[i].XL, sseq[j].XL, c) {
			// The sweep line stops at t = rseq[i]; scan sseq from j.
			internalLoop(rseq[i], sseq, j, c, func(k int) {
				emit(Pair{R: int32(i), S: int32(k)})
			})
			i++
		} else {
			// The sweep line stops at t = sseq[j]; scan rseq from i.
			internalLoop(sseq[j], rseq, i, c, func(k int) {
				emit(Pair{R: int32(k), S: int32(j)})
			})
			j++
		}
	}
}

// internalLoop scans seq starting at position unmarked while the x-projection
// of seq[k] still intersects the x-projection of t, reporting indices whose
// y-projections intersect as well.
func internalLoop(t geom.Rect, seq []geom.Rect, unmarked int, c geom.ComparisonCounter, hit func(k int)) {
	for k := unmarked; k < len(seq); k++ {
		// x-intersection test: seq[k].xl <= t.xu.
		if geom.CompareCounted(t.XU, seq[k].XL, c) {
			// seq[k].xl > t.xu: no further rectangle can overlap in x.
			return
		}
		if geom.IntersectsIntervalCounted(t, seq[k], c) {
			hit(k)
		}
	}
}

// AppendPairs is the form of SortedIntersectionTest the join hot path runs:
// it appends the pairs to out and returns the extended slice, and charges c
// once with the total.  The pair order and the number of comparisons charged
// are identical to SortedIntersectionTest.
//
//repro:hotpath
func AppendPairs(rseq, sseq []geom.Rect, c geom.ComparisonCounter, out []Pair) []Pair {
	out, n := appendPairs(rseq, sseq, out)
	if c != nil && n != 0 {
		c.AddComparisons(n)
	}
	return out
}

// appendPairs is AppendPairs without the counter: it returns the comparisons
// to charge, so the interface value is not live across the loops, which need
// every register they can get.
//
// The outer loop is the paper's: the sweep line stops at t, the unprocessed
// rectangle with the smallest xl, and InternalLoop walks the other sequence
// from its first unprocessed rectangle while the x-projections overlap.  The
// walk's y-interval test is arithmetic, not a jump: both conjuncts are
// evaluated as 0/1 integers, every position is stored as a pair
// unconditionally and the write index moves on by their product, so the only
// jump in the walk that depends on the data is its exit.  The cost is what
// the short-circuit evaluation charges: one comparison to pick t; per
// position one x test and 1 + a for the y-interval test (its second conjunct
// is only charged when the first, a, held); and the x test that ended the
// walk, unless the sequence ran out first.  The room a walk can need — the
// rest of the other sequence — is reserved before it starts, so a call over
// the same input with a buffer a previous call returned never allocates.
//
//repro:hotpath
func appendPairs(rseq, sseq []geom.Rect, out []Pair) ([]Pair, int64) {
	var n int64
	w := len(out)
	out = out[:cap(out)]
	i, j := 0, 0
	for i < len(rseq) && j < len(sseq) {
		if rseq[i].XL < sseq[j].XL {
			// The sweep line stops at t = rseq[i]; walk sseq from j.
			out = reserve(out, w, len(sseq)-j)
			xu, yl, yu := rseq[i].XU, rseq[i].YL, rseq[i].YU
			k := j
			for ; k < len(sseq) && !(xu < sseq[k].XL); k++ {
				a := geom.Bit(yl <= sseq[k].YU)
				n += a
				out[w] = Pair{R: int32(i), S: int32(k)}
				w += int(a & geom.Bit(yu >= sseq[k].YL))
			}
			n += 1 + 2*int64(k-j) + geom.Bit(k < len(sseq))
			i++
		} else {
			// The sweep line stops at t = sseq[j]; walk rseq from i.
			out = reserve(out, w, len(rseq)-i)
			xu, yl, yu := sseq[j].XU, sseq[j].YL, sseq[j].YU
			k := i
			for ; k < len(rseq) && !(xu < rseq[k].XL); k++ {
				a := geom.Bit(yl <= rseq[k].YU)
				n += a
				out[w] = Pair{R: int32(k), S: int32(j)}
				w += int(a & geom.Bit(yu >= rseq[k].YL))
			}
			n += 1 + 2*int64(k-i) + geom.Bit(k < len(rseq))
			j++
		}
	}
	return out[:w], n
}

// reserve returns out at its full capacity, regrown if that does not leave
// room for need pairs behind the first w.  A buffer that went through a run
// once never regrows on the same input.
func reserve(out []Pair, w, need int) []Pair {
	out = slices.Grow(out[:w], need)
	return out[:cap(out)]
}

// Pairs runs the sorted intersection test and collects the result into a
// fresh slice.
func Pairs(rseq, sseq []geom.Rect, c geom.ComparisonCounter) []Pair {
	return AppendPairs(rseq, sseq, c, nil)
}

// NestedLoopPairs computes all intersecting pairs by testing every rectangle
// of rseq against every rectangle of sseq, charging the join-condition
// comparisons to c.  It is the reference algorithm for correctness tests and
// the CPU-cost baseline of SpatialJoin1.
func NestedLoopPairs(rseq, sseq []geom.Rect, c geom.ComparisonCounter) []Pair {
	var out []Pair
	for i, r := range rseq {
		for j, s := range sseq {
			if geom.IntersectsCounted(r, s, c) {
				out = append(out, Pair{R: int32(i), S: int32(j)})
			}
		}
	}
	return out
}
