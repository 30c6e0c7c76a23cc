package geom

// ComparisonCounter receives the number of floating-point comparisons spent
// while evaluating intersection predicates.  internal/metrics.Collector
// satisfies it; tests may use a plain integer adapter.
type ComparisonCounter interface {
	AddComparisons(n int64)
}

// Bit returns 1 if b holds and 0 otherwise.  The compiler turns it into a
// flag-to-register move, not a jump, so the hot loops of the join can
// evaluate every conjunct of a predicate, charge the paper's short-circuit
// cost arithmetically (a failed conjunct zeroes the terms behind it) and
// advance their write index by the outcome, without a data-dependent branch
// for the predictor to miss.
func Bit(b bool) int64 {
	var v int64
	if b {
		v = 1
	}
	return v
}

// IntersectsCounted evaluates the join condition "r intersects s" and charges
// the exact number of floating-point comparisons to c, following the paper's
// accounting: a fulfilled join condition costs exactly four comparisons, a
// failed one costs between one and four depending on which conjunct fails
// first.
//
// The evaluation order matches the textual predicate
//
//	r.XL <= s.XU  AND  s.XL <= r.XU  AND  r.YL <= s.YU  AND  s.YL <= r.YU
//
// with short-circuiting after the first false conjunct.
func IntersectsCounted(r, s Rect, c ComparisonCounter) bool {
	ok, n := IntersectsCost(r, s)
	if c != nil {
		c.AddComparisons(n)
	}
	return ok
}

// IntersectsCost evaluates the join condition "r intersects s" and returns
// the number of floating-point comparisons the paper's accounting charges for
// it, without touching any counter.  Hot loops accumulate the returned costs
// in a plain local integer and flush the batch once (see metrics.Local),
// which keeps the steady-state join path free of per-predicate counter
// updates while producing bit-identical totals.
func IntersectsCost(r, s Rect) (bool, int64) {
	var n int64 = 1
	ok := r.XL <= s.XU
	if ok {
		n++
		ok = s.XL <= r.XU
		if ok {
			n++
			ok = r.YL <= s.YU
			if ok {
				n++
				ok = s.YL <= r.YU
			}
		}
	}
	return ok, n
}

// IntersectsIntervalCounted evaluates the one-dimensional interval overlap
// test used by the plane-sweep algorithm on the y-projection:
//
//	t.YL <= s.YU  AND  t.YU >= s.YL
//
// and charges the comparisons performed (two if the first conjunct holds, one
// otherwise).
func IntersectsIntervalCounted(t, s Rect, c ComparisonCounter) bool {
	ok, n := IntersectsIntervalCost(t, s)
	if c != nil {
		c.AddComparisons(n)
	}
	return ok
}

// IntersectsIntervalCost is the batch-accounting variant of
// IntersectsIntervalCounted: it returns the comparison cost instead of
// charging a counter.
func IntersectsIntervalCost(t, s Rect) (bool, int64) {
	var n int64 = 1
	ok := t.YL <= s.YU
	if ok {
		n++
		ok = t.YU >= s.YL
	}
	return ok, n
}

// CompareCounted charges a single floating-point comparison to c and reports
// whether a < b.  The plane-sweep algorithms use it for the x-axis scans so
// that their comparisons are included in the CPU cost measure, exactly as the
// paper's Table 4 separates "join" and "sorting" comparisons.
func CompareCounted(a, b float64, c ComparisonCounter) bool {
	if c != nil {
		c.AddComparisons(1)
	}
	return a < b
}
