package geom

import (
	"math"
	"testing"
)

// The rectangle operations use Go's builtin min and max, which the compiler
// inlines; math.Min and math.Max are assembly calls.  The functions below are
// the math.Min/math.Max versions they replaced, kept as the reference the
// builtins must reproduce bit for bit.
//
// On every input without a NaN the two agree exactly, signed zeros and
// infinities included.  With a NaN argument both return a NaN, but not the
// same one: math returns its canonical NaN while the builtins pass an input
// NaN through, and math treats the matching infinity as absorbing
// (math.Min(-Inf, NaN) = -Inf, math.Max(+Inf, NaN) = +Inf) where the builtins
// return the NaN.  Rectangles with a NaN coordinate are not Valid, and one
// below a directory entry makes rtree's CheckInvariants fail, so no tree
// shape depends on those cases.

func refUnion(r, s Rect) Rect {
	return Rect{
		XL: math.Min(r.XL, s.XL),
		YL: math.Min(r.YL, s.YL),
		XU: math.Max(r.XU, s.XU),
		YU: math.Max(r.YU, s.YU),
	}
}

func refExtendPoint(r Rect, p Point) Rect {
	return Rect{
		XL: math.Min(r.XL, p.X),
		YL: math.Min(r.YL, p.Y),
		XU: math.Max(r.XU, p.X),
		YU: math.Max(r.YU, p.Y),
	}
}

func refIntersection(r, s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		XL: math.Max(r.XL, s.XL),
		YL: math.Max(r.YL, s.YL),
		XU: math.Min(r.XU, s.XU),
		YU: math.Min(r.YU, s.YU),
	}, true
}

func refIntersectionArea(r, s Rect) float64 {
	w := math.Min(r.XU, s.XU) - math.Max(r.XL, s.XL)
	if w <= 0 {
		return 0
	}
	h := math.Min(r.YU, s.YU) - math.Max(r.YL, s.YL)
	if h <= 0 {
		return 0
	}
	return w * h
}

func refEnlargement(r, s Rect) float64 { return refUnion(r, s).Area() - r.Area() }

func hasNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRectBits(a, b Rect) bool {
	return sameBits(a.XL, b.XL) && sameBits(a.YL, b.YL) && sameBits(a.XU, b.XU) && sameBits(a.YU, b.YU)
}

// checkRectOps compares every builtin-based operation with its math.Min/Max
// reference on one pair of rectangles; the inputs must be NaN-free.
func checkRectOps(t *testing.T, r, s Rect) {
	t.Helper()
	if got, want := r.Union(s), refUnion(r, s); !sameRectBits(got, want) {
		t.Errorf("%v.Union(%v) = %v, reference %v", r, s, got, want)
	}
	p := Point{X: s.XL, Y: s.YU}
	if got, want := r.ExtendPoint(p), refExtendPoint(r, p); !sameRectBits(got, want) {
		t.Errorf("%v.ExtendPoint(%v) = %v, reference %v", r, p, got, want)
	}
	got, gotOK := r.Intersection(s)
	want, wantOK := refIntersection(r, s)
	if gotOK != wantOK || !sameRectBits(got, want) {
		t.Errorf("%v.Intersection(%v) = %v %v, reference %v %v", r, s, got, gotOK, want, wantOK)
	}
	if got, want := r.IntersectionArea(s), refIntersectionArea(r, s); !sameBits(got, want) {
		t.Errorf("%v.IntersectionArea(%v) = %v (%#x), reference %v (%#x)",
			r, s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := r.Enlargement(s), refEnlargement(r, s); !sameBits(got, want) {
		t.Errorf("%v.Enlargement(%v) = %v (%#x), reference %v (%#x)",
			r, s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestBuiltinMinMaxMatchMath(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	special := []float64{0, negZero, 1, -1, 0.5, inf, -inf, sub, -sub, 2 * sub,
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022}

	// Scalar semantics on every pair of the table, NaN included.
	nan := math.NaN()
	for _, a := range append(special, nan) {
		for _, b := range append(special, nan) {
			mn, mx := min(a, b), max(a, b)
			rmn, rmx := math.Min(a, b), math.Max(a, b)
			if !hasNaN(a, b) {
				if !sameBits(mn, rmn) || !sameBits(mx, rmx) {
					t.Errorf("min/max(%v, %v) = %v/%v, math %v/%v", a, b, mn, mx, rmn, rmx)
				}
				continue
			}
			// A NaN argument: both sides are NaN except where math lets
			// the matching infinity absorb it.
			if !math.IsNaN(mn) || !math.IsNaN(mx) {
				t.Errorf("min/max(%v, %v) = %v/%v, want NaN", a, b, mn, mx)
			}
			if wantNaN := !(a == -inf || b == -inf); math.IsNaN(rmn) != wantNaN {
				t.Errorf("math.Min(%v, %v) = %v", a, b, rmn)
			}
			if wantNaN := !(a == inf || b == inf); math.IsNaN(rmx) != wantNaN {
				t.Errorf("math.Max(%v, %v) = %v", a, b, rmx)
			}
		}
	}

	// Rectangle operations over corners drawn from the table (ordered or
	// not: the operations do not require Valid input), plus touching and
	// nested layouts the R*-tree's overlap scan meets.
	for i, a := range special {
		for j, b := range special {
			r := Rect{XL: a, YL: b, XU: special[(i+1)%len(special)], YU: special[(j+3)%len(special)]}
			for _, c := range special {
				s := Rect{XL: c, YL: a, XU: b, YU: c}
				checkRectOps(t, r, s)
				checkRectOps(t, s, r)
			}
		}
	}
	unit := Rect{XL: 0, YL: 0, XU: 1, YU: 1}
	for _, s := range []Rect{
		{XL: 1, YL: 0, XU: 2, YU: 1},                 // shares the right edge
		{XL: 1, YL: 1, XU: 2, YU: 2},                 // shares one corner
		{XL: negZero, YL: negZero, XU: 1, YU: 1},     // the same square with -0 corners
		{XL: 0.25, YL: 0.25, XU: 0.5, YU: 0.5},       // nested
		{XL: 1 + 0x1p-52, YL: 0, XU: 2, YU: 1},       // one ulp apart
		{XL: 0, YL: 0, XU: sub, YU: sub},             // subnormal extents: the area underflows
		{XL: -inf, YL: -inf, XU: inf, YU: inf},       // the whole plane
		{XL: 0.5, YL: -inf, XU: 0.5, YU: inf},        // a degenerate infinite line
		{XL: math.MaxFloat64, YL: 0, XU: inf, YU: 1}, // beyond the square
	} {
		checkRectOps(t, unit, s)
		checkRectOps(t, s, unit)
	}
	// Two upward-unbounded strips sharing an edge: zero width, infinite
	// height, so an area computed past the width test would be NaN.
	checkRectOps(t, Rect{XL: 0, YL: 0, XU: 1, YU: inf}, Rect{XL: 1, YL: 0, XU: 2, YU: inf})
}

// FuzzRectOps checks Union, Intersection, IntersectionArea and Enlargement
// against their math.Min/Max references on arbitrary NaN-free rectangles.
func FuzzRectOps(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 2.0, 1.0)
	f.Add(0.0, 0.0, 1.0, 1.0, math.Copysign(0, -1), 0.0, 0.5, 0.5)
	f.Add(math.Inf(-1), 0.0, math.Inf(1), 1.0, 0.0, 0.0, math.SmallestNonzeroFloat64, 1.0)
	f.Add(0.1, 0.2, 0.3, 0.4, 0.3, 0.4, 0.5, 0.6)
	f.Fuzz(func(t *testing.T, rxl, ryl, rxu, ryu, sxl, syl, sxu, syu float64) {
		if hasNaN(rxl, ryl, rxu, ryu, sxl, syl, sxu, syu) {
			return
		}
		checkRectOps(t, Rect{XL: rxl, YL: ryl, XU: rxu, YU: ryu}, Rect{XL: sxl, YL: syl, XU: sxu, YU: syu})
	})
}
