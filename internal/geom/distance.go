package geom

import "math"

// Distance primitives for the within-distance and kNN join predicates.
//
// The paper's CPU cost measure is the number of floating-point comparisons
// spent evaluating the join condition (section 4).  The distance predicates
// extend that accounting in the same spirit: computing the minimum distance
// between two rectilinear rectangles requires locating the relative position
// of the two intervals on each axis, which costs one comparison when the
// first test resolves it and two otherwise — mirroring the short-circuit
// structure of IntersectsCost.  All distances are kept in squared form so the
// predicates never pay (or have to account for) a square root.

// ExpandRect grows r by eps on every side.  The within-distance filter runs
// the unchanged intersection machinery over epsilon-expanded rectangles: two
// rectangles are within distance eps only if the expansion of one intersects
// the other (the converse does not hold at corners, which is why leaf pairs
// get the exact RectDistSquaredCost test).
func ExpandRect(r Rect, eps float64) Rect {
	return Rect{XL: r.XL - eps, YL: r.YL - eps, XU: r.XU + eps, YU: r.YU + eps}
}

// RectDistSquaredCost returns the squared minimum (Euclidean) distance
// between the rectangles r and s, together with the number of floating-point
// comparisons charged for computing it.  Intersecting or touching rectangles
// have distance zero.
//
// Per axis the interval gap is located with the comparison sequence
//
//	s.XU < r.XL   (gap on the low side of r)
//	r.XU < s.XL   (gap on the high side of r; only evaluated if the first fails)
//
// so each axis costs one or two comparisons and the whole computation two to
// four, matching the granularity of IntersectsCost.
func RectDistSquaredCost(r, s Rect) (float64, int64) {
	var n int64 = 1
	var dx, dy float64
	if s.XU < r.XL {
		dx = r.XL - s.XU
	} else {
		n++
		if r.XU < s.XL {
			dx = s.XL - r.XU
		}
	}
	n++
	if s.YU < r.YL {
		dy = r.YL - s.YU
	} else {
		n++
		if r.YU < s.YL {
			dy = s.YL - r.YU
		}
	}
	return dx*dx + dy*dy, n
}

// WithinDistSquaredCost evaluates the join condition "the minimum distance
// between r and s is at most sqrt(eps2)" and returns the comparison cost: the
// distance computation of RectDistSquaredCost plus one threshold comparison.
// Callers pass eps*eps so the threshold test needs no square root.
//
// The distance and the cost are RectDistSquaredCost's bit for bit, computed
// without a jump: both gaps of an axis are subtracted, the one the
// comparisons pick is selected by mask (neither leaves +0), and an axis
// costs two comparisons unless its low-side test held.  The refinement of a
// within-distance join meets its candidates in sweep order, where the side
// the gap lies on changes from pair to pair and the jumps of
// RectDistSquaredCost mispredict; the kNN scans walk one leaf outwards from
// an item, meet the gap on one side in long runs and are faster with the
// jumps, so that function keeps them.
func WithinDistSquaredCost(r, s Rect, eps2 float64) (bool, int64) {
	lowX, lowY := Bit(s.XU < r.XL), Bit(s.YU < r.YL)
	dx := gap(r.XL-s.XU, lowX, s.XL-r.XU, Bit(r.XU < s.XL)&^lowX)
	dy := gap(r.YL-s.YU, lowY, s.YL-r.YU, Bit(r.YU < s.YL)&^lowY)
	return dx*dx+dy*dy <= eps2, 5 - lowX - lowY
}

// gap returns low if pickLow is 1, high if pickHigh is 1 and +0 if both are
// 0.
func gap(low float64, pickLow int64, high float64, pickHigh int64) float64 {
	return math.Float64frombits(math.Float64bits(low)&uint64(-pickLow) | math.Float64bits(high)&uint64(-pickHigh))
}
