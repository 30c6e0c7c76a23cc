package datagen

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestGenerateCountsAndBounds(t *testing.T) {
	for _, kind := range []Kind{Streets, Rivers, Regions} {
		cfg := Config{Kind: kind, Count: 5000, Seed: 1}
		items := Generate(cfg)
		if len(items) != cfg.Count {
			t.Fatalf("%v: generated %d items, want %d", kind, len(items), cfg.Count)
		}
		world := geom.WorldRect()
		ids := make(map[int32]bool)
		for i, it := range items {
			if !it.Rect.WellFormed() {
				t.Fatalf("%v: invalid rect %v at %d", kind, it.Rect, i)
			}
			if !world.Contains(it.Rect) {
				t.Fatalf("%v: rect %v escapes the world", kind, it.Rect)
			}
			ids[it.Data] = true
		}
		if kind != Rivers && len(ids) != cfg.Count {
			t.Fatalf("%v: object identifiers are not unique (%d distinct)", kind, len(ids))
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := Generate(Config{Kind: Streets, Count: 1000, Seed: 7})
	b := Generate(Config{Kind: Streets, Count: 1000, Seed: 7})
	c := Generate(Config{Kind: Streets, Count: 1000, Seed: 8})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different item at %d", i)
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical relations")
	}
}

func TestStreetsAreSmallAndClustered(t *testing.T) {
	items := Generate(Config{Kind: Streets, Count: 20000, Seed: 3})
	var maxSide, sumArea float64
	for _, it := range items {
		side := math.Max(it.Rect.Width(), it.Rect.Height())
		if side > maxSide {
			maxSide = side
		}
		sumArea += it.Rect.Area()
	}
	if maxSide > 0.01 {
		t.Errorf("street segment MBRs should be small, max side %g", maxSide)
	}
	// Clustered data: the densest 10% of a coarse grid should hold far more
	// than 10% of the segments.
	const grid = 20
	counts := make([]int, grid*grid)
	for _, it := range items {
		c := it.Rect.Center()
		gx := int(c.X * grid)
		gy := int(c.Y * grid)
		if gx >= grid {
			gx = grid - 1
		}
		if gy >= grid {
			gy = grid - 1
		}
		counts[gy*grid+gx]++
	}
	// Count how many cells hold 80% of the data.
	total := len(items)
	covered, cells := 0, 0
	for covered < total*8/10 {
		best, bestIdx := -1, -1
		for i, c := range counts {
			if c > best {
				best, bestIdx = c, i
			}
		}
		covered += best
		counts[bestIdx] = -1
		cells++
	}
	if cells > grid*grid/2 {
		t.Errorf("street data is not clustered: %d of %d cells needed for 80%% of objects", cells, grid*grid)
	}
}

func TestRegionsAreLargerThanStreets(t *testing.T) {
	streets := Generate(Config{Kind: Streets, Count: 5000, Seed: 5})
	regions := Generate(Config{Kind: Regions, Count: 5000, Seed: 5})
	var streetArea, regionArea float64
	for _, it := range streets {
		streetArea += it.Rect.Area()
	}
	for _, it := range regions {
		regionArea += it.Rect.Area()
	}
	if regionArea <= streetArea*10 {
		t.Errorf("region MBRs should be much larger: street area %g, region area %g", streetArea, regionArea)
	}
}

func TestRiversAreSpatiallyCorrelated(t *testing.T) {
	items := Generate(Config{Kind: Rivers, Count: 5000, Seed: 9})
	// Consecutive segments of the same polyline touch, so the distance
	// between consecutive rectangle centres should usually be tiny.
	close := 0
	for i := 1; i < len(items); i++ {
		if items[i-1].Rect.Center().Distance(items[i].Rect.Center()) < 0.01 {
			close++
		}
	}
	if float64(close)/float64(len(items)) < 0.9 {
		t.Errorf("river segments are not correlated: only %d of %d consecutive pairs are close", close, len(items))
	}
}

func TestJoinSelectivityOrdering(t *testing.T) {
	// Region-region joins must produce far more intersections per object than
	// street-river joins, mirroring the paper's Table 8 (86k results for
	// ~130k line objects vs 543k results for ~34k-67k region objects).
	count := 4000
	streets := Generate(Config{Kind: Streets, Count: count, Seed: 11})
	rivers := Generate(Config{Kind: Rivers, Count: count, Seed: 12})
	regionsR := Generate(Config{Kind: Regions, Count: count, Seed: 13})
	regionsS := Generate(Config{Kind: Regions, Count: count / 2, Seed: 14})

	countPairs := func(a, b []geom.Rect) int {
		n := 0
		for _, r := range a {
			for _, s := range b {
				if r.Intersects(s) {
					n++
				}
			}
		}
		return n
	}

	sr := make([]geom.Rect, len(streets))
	for i, it := range streets {
		sr[i] = it.Rect
	}
	rr := make([]geom.Rect, len(rivers))
	for i, it := range rivers {
		rr[i] = it.Rect
	}
	gr := make([]geom.Rect, len(regionsR))
	for i, it := range regionsR {
		gr[i] = it.Rect
	}
	gs := make([]geom.Rect, len(regionsS))
	for i, it := range regionsS {
		gs[i] = it.Rect
	}

	lineJoin := countPairs(sr, rr)
	regionJoin := countPairs(gr, gs)
	if regionJoin <= lineJoin {
		t.Errorf("region join selectivity (%d) should exceed line join selectivity (%d)", regionJoin, lineJoin)
	}
}

func TestKindString(t *testing.T) {
	if Streets.String() == "" || Rivers.String() == "" || Regions.String() == "" || Kind(42).String() == "" {
		t.Error("Kind.String must not be empty")
	}
}

func TestConfigDefaultWorld(t *testing.T) {
	items := Generate(Config{Kind: Regions, Count: 100, Seed: 1})
	if len(items) != 100 {
		t.Fatalf("got %d items", len(items))
	}
	custom := Generate(Config{Kind: Streets, Count: 100, Seed: 1, World: geom.Rect{XL: 10, YL: 10, XU: 20, YU: 20}})
	for _, it := range custom {
		if it.Rect.XL < 10 || it.Rect.XU > 20 {
			t.Fatalf("item %v escapes custom world", it.Rect)
		}
	}
}
