package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectNormalisesCorners(t *testing.T) {
	r := NewRect(3, 4, 1, 2)
	want := Rect{XL: 1, YL: 2, XU: 3, YU: 4}
	if r != want {
		t.Fatalf("NewRect(3,4,1,2) = %v, want %v", r, want)
	}
}

func TestRectFromPoints(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	r := RectFromPoints(pts)
	want := Rect{XL: -2, YL: -1, XU: 4, YU: 5}
	if r != want {
		t.Fatalf("RectFromPoints = %v, want %v", r, want)
	}
}

func TestRectFromPointsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty point slice")
		}
	}()
	RectFromPoints(nil)
}

func TestValid(t *testing.T) {
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"unit square", Rect{0, 0, 1, 1}, true},
		{"degenerate point", Rect{1, 1, 1, 1}, true},
		{"inverted x", Rect{2, 0, 1, 1}, false},
		{"inverted y", Rect{0, 2, 1, 1}, false},
		{"nan", Rect{math.NaN(), 0, 1, 1}, false},
		{"inf", Rect{0, 0, math.Inf(1), 1}, false},
	}
	for _, tt := range tests {
		if got := tt.r.WellFormed(); got != tt.want {
			t.Errorf("%s: WellFormed() = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestAreaMarginCenter(t *testing.T) {
	r := Rect{XL: 1, YL: 2, XU: 4, YU: 8}
	if got := r.Width(); got != 3 {
		t.Errorf("Width = %g, want 3", got)
	}
	if got := r.Height(); got != 6 {
		t.Errorf("Height = %g, want 6", got)
	}
	if got := r.Area(); got != 18 {
		t.Errorf("Area = %g, want 18", got)
	}
	if got := r.Margin(); got != 9 {
		t.Errorf("Margin = %g, want 9", got)
	}
	if got := r.Center(); got != (Point{2.5, 5}) {
		t.Errorf("Center = %v, want (2.5,5)", got)
	}
}

func TestIntersects(t *testing.T) {
	base := Rect{XL: 0, YL: 0, XU: 2, YU: 2}
	tests := []struct {
		name string
		s    Rect
		want bool
	}{
		{"identical", base, true},
		{"contained", Rect{0.5, 0.5, 1.5, 1.5}, true},
		{"overlap corner", Rect{1, 1, 3, 3}, true},
		{"touch edge", Rect{2, 0, 3, 2}, true},
		{"touch corner", Rect{2, 2, 3, 3}, true},
		{"disjoint right", Rect{2.1, 0, 3, 2}, false},
		{"disjoint above", Rect{0, 2.1, 2, 3}, false},
		{"disjoint left", Rect{-3, 0, -1, 2}, false},
		{"disjoint below", Rect{0, -3, 2, -1}, false},
	}
	for _, tt := range tests {
		if got := base.Intersects(tt.s); got != tt.want {
			t.Errorf("%s: Intersects = %v, want %v", tt.name, got, tt.want)
		}
		// Intersection must be symmetric.
		if got := tt.s.Intersects(base); got != tt.want {
			t.Errorf("%s: reverse Intersects = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestIntersection(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	got, ok := a.Intersection(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	want := Rect{1, 1, 2, 2}
	if got != want {
		t.Fatalf("Intersection = %v, want %v", got, want)
	}
	if _, ok := a.Intersection(Rect{5, 5, 6, 6}); ok {
		t.Fatal("expected no intersection")
	}
}

func TestIntersectionArea(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	if got := a.IntersectionArea(Rect{1, 1, 3, 3}); got != 1 {
		t.Errorf("IntersectionArea = %g, want 1", got)
	}
	if got := a.IntersectionArea(Rect{3, 3, 4, 4}); got != 0 {
		t.Errorf("disjoint IntersectionArea = %g, want 0", got)
	}
	if got := a.IntersectionArea(Rect{2, 0, 3, 2}); got != 0 {
		t.Errorf("touching IntersectionArea = %g, want 0", got)
	}
}

func TestContains(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.Contains(Rect{1, 1, 9, 9}) {
		t.Error("expected containment of inner rect")
	}
	if !outer.Contains(outer) {
		t.Error("expected containment of itself")
	}
	if outer.Contains(Rect{1, 1, 11, 9}) {
		t.Error("did not expect containment of overflowing rect")
	}
	if !outer.ContainsPoint(Point{5, 5}) {
		t.Error("expected point containment")
	}
	if outer.ContainsPoint(Point{11, 5}) {
		t.Error("did not expect point containment outside")
	}
}

func TestUnionAndEnlargement(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, 2, 3, 3}
	u := a.Union(b)
	want := Rect{0, 0, 3, 3}
	if u != want {
		t.Fatalf("Union = %v, want %v", u, want)
	}
	if got := a.Enlargement(b); got != 8 {
		t.Errorf("Enlargement = %g, want 8", got)
	}
	if got := a.Enlargement(Rect{0.2, 0.2, 0.8, 0.8}); got != 0 {
		t.Errorf("Enlargement of contained rect = %g, want 0", got)
	}
}

func TestCenterDistance(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{3, 4, 5, 6}
	// centres are (1,1) and (4,5): distance 5.
	if got := a.CenterDistance(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("CenterDistance = %g, want 5", got)
	}
}

func TestPointDistanceAndRect(t *testing.T) {
	p := Point{1, 2}
	q := Point{4, 6}
	if got := p.Distance(q); math.Abs(got-5) > 1e-12 {
		t.Errorf("Distance = %g, want 5", got)
	}
	if got := p.Rect(); got != (Rect{1, 2, 1, 2}) {
		t.Errorf("Rect = %v", got)
	}
}

func TestStringFormat(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	if got := r.String(); got != "[1,3]x[2,4]" {
		t.Errorf("String = %q", got)
	}
}

func randomRect(rng *rand.Rand) Rect {
	x := rng.Float64() * 100
	y := rng.Float64() * 100
	return Rect{XL: x, YL: y, XU: x + rng.Float64()*10, YU: y + rng.Float64()*10}
}

// Property: union always contains both operands and intersection (when
// non-empty) is contained in both operands.
func TestUnionIntersectionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b := randomRect(rng), randomRect(rng)
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			t.Fatalf("union %v does not contain operands %v %v", u, a, b)
		}
		if in, ok := a.Intersection(b); ok {
			if !a.Contains(in) || !b.Contains(in) {
				t.Fatalf("intersection %v not contained in operands %v %v", in, a, b)
			}
			if !a.Intersects(b) {
				t.Fatalf("Intersection returned ok but Intersects is false for %v %v", a, b)
			}
			if got, want := in.Area(), a.IntersectionArea(b); math.Abs(got-want) > 1e-9 {
				t.Fatalf("IntersectionArea mismatch: %g vs %g", got, want)
			}
		} else if a.IntersectionArea(b) != 0 {
			t.Fatalf("no intersection but positive area for %v %v", a, b)
		}
	}
}

// Property: enlargement is never negative and is zero exactly when the
// argument is contained.
func TestEnlargementProperty(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := Rect{float64(ax), float64(ay), float64(ax) + float64(aw), float64(ay) + float64(ah)}
		b := Rect{float64(bx), float64(by), float64(bx) + float64(bw), float64(by) + float64(bh)}
		e := a.Enlargement(b)
		if e < 0 {
			return false
		}
		if a.Contains(b) && e != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
