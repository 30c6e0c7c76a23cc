package zorder

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestKeyOfCellKnownValues(t *testing.T) {
	tests := []struct {
		cx, cy uint32
		want   uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{2, 2, 12},
		{3, 3, 15},
	}
	for _, tt := range tests {
		if got := KeyOfCell(tt.cx, tt.cy); got != tt.want {
			t.Errorf("KeyOfCell(%d,%d) = %d, want %d", tt.cx, tt.cy, got, tt.want)
		}
	}
}

func TestKeyMonotoneInQuadrants(t *testing.T) {
	world := geom.WorldRect()
	// All points in the lower-left quadrant must sort before all points in the
	// upper-right quadrant on the z-curve.
	llMax := Key(geom.Point{X: 0.49, Y: 0.49}, world)
	urMin := Key(geom.Point{X: 0.51, Y: 0.51}, world)
	if llMax >= urMin {
		t.Fatalf("expected lower-left key %d < upper-right key %d", llMax, urMin)
	}
}

func TestKeyClampsOutsideWorld(t *testing.T) {
	world := geom.WorldRect()
	if got := Key(geom.Point{X: -5, Y: -5}, world); got != 0 {
		t.Errorf("clamped key below = %d, want 0", got)
	}
	maxKey := KeyOfCell(maxCell, maxCell)
	if got := Key(geom.Point{X: 5, Y: 5}, world); got != maxKey {
		t.Errorf("clamped key above = %d, want %d", got, maxKey)
	}
}

func TestKeyDegenerateWorld(t *testing.T) {
	world := geom.Rect{XL: 1, YL: 1, XU: 1, YU: 1}
	if got := Key(geom.Point{X: 1, Y: 1}, world); got != 0 {
		t.Errorf("degenerate world key = %d, want 0", got)
	}
}

func TestRectKeyUsesCenter(t *testing.T) {
	world := geom.WorldRect()
	r := geom.Rect{XL: 0.2, YL: 0.2, XU: 0.4, YU: 0.4}
	if got, want := RectKey(r, world), Key(geom.Point{X: 0.3, Y: 0.3}, world); got != want {
		t.Errorf("RectKey = %d, want %d", got, want)
	}
}

func TestHilbertKeyOfCellFirstOrderSteps(t *testing.T) {
	// The four coarse quadrants of the Hilbert curve are visited in the order
	// lower-left, upper-left, upper-right, lower-right.
	half := uint32(1 << (Resolution - 1))
	keys := []uint64{
		HilbertKeyOfCell(0, 0),
		HilbertKeyOfCell(0, half),
		HilbertKeyOfCell(half, half),
		HilbertKeyOfCell(half, 0),
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("Hilbert quadrant order violated: %v", keys)
		}
	}
}

func TestHilbertKeyIsBijectiveOnSmallGrid(t *testing.T) {
	// On a coarse sub-grid the Hilbert keys must be pairwise distinct.
	seen := make(map[uint64][2]uint32)
	step := uint32(1 << (Resolution - 4)) // 16x16 coarse grid
	for cx := uint32(0); cx < 1<<Resolution; cx += step {
		for cy := uint32(0); cy < 1<<Resolution; cy += step {
			k := HilbertKeyOfCell(cx, cy)
			if prev, dup := seen[k]; dup {
				t.Fatalf("duplicate Hilbert key %d for (%d,%d) and %v", k, cx, cy, prev)
			}
			seen[k] = [2]uint32{cx, cy}
		}
	}
}

// Property: z-order keys of distinct cells are distinct (the interleaving is
// injective).
func TestKeyInjective(t *testing.T) {
	f := func(ax, ay, bx, by uint16) bool {
		ka := KeyOfCell(uint32(ax), uint32(ay))
		kb := KeyOfCell(uint32(bx), uint32(by))
		if ax == bx && ay == by {
			return ka == kb
		}
		return ka != kb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: sorting random points by z-order key groups points from the same
// quadrant together (locality sanity check): the number of quadrant changes
// along the sorted sequence is at most 2x the number of quadrants minus 1 on
// average for clustered data.  We assert the weaker invariant that sorting is
// deterministic and stable with respect to the key.
func TestSortingByKeyIsDeterministic(t *testing.T) {
	world := geom.WorldRect()
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	order := func() []uint64 {
		keys := make([]uint64, len(pts))
		for i, p := range pts {
			keys[i] = Key(p, world)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys
	}
	a, b := order(), order()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic ordering at %d", i)
		}
	}
}

func TestCellOfClamping(t *testing.T) {
	if got := cellOf(0.5, 0, 1); got != maxCell/2 {
		t.Errorf("cellOf(0.5) = %d, want %d", got, maxCell/2)
	}
	if got := cellOf(-1, 0, 1); got != 0 {
		t.Errorf("cellOf(-1) = %d, want 0", got)
	}
	if got := cellOf(2, 0, 1); got != maxCell {
		t.Errorf("cellOf(2) = %d, want %d", got, maxCell)
	}
}
