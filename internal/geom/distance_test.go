package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestExpandRect(t *testing.T) {
	r := Rect{XL: 1, YL: 2, XU: 3, YU: 4}
	got := ExpandRect(r, 0.5)
	want := Rect{XL: 0.5, YL: 1.5, XU: 3.5, YU: 4.5}
	if got != want {
		t.Fatalf("ExpandRect = %v, want %v", got, want)
	}
	if ExpandRect(r, 0) != r {
		t.Fatalf("ExpandRect(r, 0) must be identity")
	}
}

// naiveRectDist computes the minimum distance between two rectangles by
// brute force over the corner/edge cases using per-axis clamps.
func naiveRectDist(r, s Rect) float64 {
	dx := math.Max(0, math.Max(r.XL-s.XU, s.XL-r.XU))
	dy := math.Max(0, math.Max(r.YL-s.YU, s.YL-r.YU))
	return math.Hypot(dx, dy)
}

func TestRectDistSquaredCost(t *testing.T) {
	cases := []struct {
		name  string
		r, s  Rect
		comps int64
	}{
		{"overlap", Rect{0, 0, 2, 2}, Rect{1, 1, 3, 3}, 4},
		{"touching", Rect{0, 0, 1, 1}, Rect{1, 0, 2, 1}, 4},
		{"left gap", Rect{5, 0, 6, 1}, Rect{0, 0, 1, 1}, 3},
		{"right gap", Rect{0, 0, 1, 1}, Rect{5, 0, 6, 1}, 4},
		{"below gap", Rect{0, 5, 1, 6}, Rect{0, 0, 1, 1}, 3},
		{"corner gap", Rect{3, 4, 5, 6}, Rect{0, 0, 1, 1}, 2},
		{"identical", Rect{0, 0, 1, 1}, Rect{0, 0, 1, 1}, 4},
	}
	for _, tc := range cases {
		d2, n := RectDistSquaredCost(tc.r, tc.s)
		want := naiveRectDist(tc.r, tc.s)
		if math.Abs(math.Sqrt(d2)-want) > 1e-12 {
			t.Errorf("%s: dist = %v, want %v", tc.name, math.Sqrt(d2), want)
		}
		if n != tc.comps {
			t.Errorf("%s: comparisons = %d, want %d", tc.name, n, tc.comps)
		}
		// The distance function must be symmetric in its arguments.
		d2s, _ := RectDistSquaredCost(tc.s, tc.r)
		if d2 != d2s {
			t.Errorf("%s: asymmetric distance %v vs %v", tc.name, d2, d2s)
		}
	}
}

func TestWithinDistSquaredCost(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	s := Rect{4, 4, 5, 5} // corner gap: distance = sqrt(9+9) = 4.2426...
	eps := 4.0
	ok, n := WithinDistSquaredCost(r, s, eps*eps)
	if ok {
		t.Fatalf("corner distance %.4f must exceed eps %.4f", math.Sqrt(18), eps)
	}
	if n != 5 { // 2 per axis (gap on the high side of r) + 1 threshold
		t.Fatalf("comparisons = %d, want 5", n)
	}
	ok, _ = WithinDistSquaredCost(r, s, 18.0)
	if !ok {
		t.Fatalf("distance sqrt(18) must be within sqrt(18)")
	}
	// The expanded-rectangle filter must never reject a within-distance pair:
	// dist(r,s) <= eps implies ExpandRect(r, eps) intersects s.
	for _, eps := range []float64{0.5, 1, 3, 4.3} {
		within, _ := WithinDistSquaredCost(r, s, eps*eps)
		if within && !ExpandRect(r, eps).Intersects(s) {
			t.Fatalf("eps=%v: filter rejected a qualifying pair", eps)
		}
	}
}

// TestWithinDistSquaredCostIsRectDistSquaredCost pins the jump-free
// formulation to the one with jumps bit for bit — outcome and cost for every
// threshold, which fixes the distance itself — over rectangles in every
// relative position, touching, degenerate, inverted, infinite and NaN.
func TestWithinDistSquaredCostIsRectDistSquaredCost(t *testing.T) {
	coords := []float64{-3, -1, math.Copysign(0, -1), 0, 1, 1.5, 2, 4, math.Inf(-1), math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(21))
	pick := func() Rect {
		if rng.Intn(4) == 0 {
			return randomRect(rng)
		}
		c := func() float64 { return coords[rng.Intn(len(coords))] }
		return Rect{XL: c(), YL: c(), XU: c(), YU: c()}
	}
	for i := 0; i < 200000; i++ {
		r, s := pick(), pick()
		d2, n := RectDistSquaredCost(r, s)
		for _, eps2 := range []float64{d2, math.Nextafter(d2, math.Inf(-1)), math.Nextafter(d2, math.Inf(1)), 0, math.Inf(1)} {
			ok, cost := WithinDistSquaredCost(r, s, eps2)
			if ok != (d2 <= eps2) || cost != n+1 {
				t.Fatalf("r=%v s=%v eps2=%v: within (%v, %d), distance %v at cost %d", r, s, eps2, ok, cost, d2, n)
			}
		}
	}
}

// BenchmarkDistanceKernels runs both formulations of the distance over
// rectangle pairs in random relative position, where the side the gap lies
// on — what RectDistSquaredCost jumps on — cannot be predicted: the case of
// the within-distance refinement, not of the kNN scans.
func BenchmarkDistanceKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]Rect, 1<<14)
	for i := range pairs {
		pairs[i] = [2]Rect{randomRect(rng), randomRect(rng)}
	}
	var comps int64
	b.Run("RectDistSquaredCost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := &pairs[i%len(pairs)]
			_, n := RectDistSquaredCost(p[0], p[1])
			comps += n
		}
	})
	b.Run("WithinDistSquaredCost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := &pairs[i%len(pairs)]
			_, n := WithinDistSquaredCost(p[0], p[1], 25)
			comps += n
		}
	})
	if comps < 0 {
		b.Fatal("unreachable")
	}
}
