package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// refOverlapEnlargement is the full overlap-enlargement sum over every
// sibling, the definition overlapEnlargement must reproduce bit for bit.
func refOverlapEnlargement(entries []Entry, i int, r geom.Rect) float64 {
	enlarged := entries[i].Rect.Union(r)
	var delta float64
	for j := range entries {
		if j == i {
			continue
		}
		delta += enlarged.IntersectionArea(entries[j].Rect) -
			entries[i].Rect.IntersectionArea(entries[j].Rect)
	}
	return delta
}

// gridRect draws a rectangle whose corners lie on a coarse grid, so shared
// edges, shared corners, zero-width rectangles and containment are common.
func gridRect(rng *rand.Rand, cells int) geom.Rect {
	c := func() float64 { return float64(rng.Intn(cells+1)) / float64(cells) }
	return geom.NewRect(c(), c(), c(), c())
}

// TestOverlapEnlargementMatchesFullSum compares the skipping scan with the
// full sum on grid-aligned nodes (touching and nested rectangles), on nodes
// of tiny, subnormal-area and huge rectangles, and on signed zeros.
func TestOverlapEnlargementMatchesFullSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(entries []Entry, r geom.Rect) {
		t.Helper()
		for i := range entries {
			got, want := overlapEnlargement(entries, i, r), refOverlapEnlargement(entries, i, r)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("entry %d of %v, r %v: got %v (%#x), full sum %v (%#x)",
					i, entries, r, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for trial := 0; trial < 3000; trial++ {
		entries := make([]Entry, 2+rng.Intn(40))
		scale := []float64{1, 1e-160, 1e300, 0x1p-1074}[trial%4]
		for i := range entries {
			g := gridRect(rng, 1+rng.Intn(8))
			entries[i].Rect = geom.Rect{XL: g.XL * scale, YL: g.YL * scale, XU: g.XU * scale, YU: g.YU * scale}
		}
		g := gridRect(rng, 8)
		check(entries, geom.Rect{XL: g.XL * scale, YL: g.YL * scale, XU: g.XU * scale, YU: g.YU * scale})
	}
	negZero := math.Copysign(0, -1)
	check([]Entry{
		{Rect: geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}},
		{Rect: geom.Rect{XL: negZero, YL: negZero, XU: 0.5, YU: 0.5}},
		{Rect: geom.Rect{XL: 1, YL: 0, XU: 2, YU: 1}},
		{Rect: geom.Rect{XL: -1, YL: -1, XU: negZero, YU: negZero}},
		{Rect: geom.Rect{XL: -math.MaxFloat64, YL: 0, XU: math.MaxFloat64, YU: 1}},
	}, geom.Rect{XL: negZero, YL: 0, XU: 0, YU: negZero})
}

// refChooseSubtree is the R* ChooseSubtree at a leaf-parent as the full
// definition states it: sort every entry by area enlargement (the same
// sort.Sort over the same sorter), keep the first chooseSubtreeCandidates,
// and take the least (overlap enlargement, area enlargement, area) in that
// order, each candidate's overlap enlargement summed over all its siblings.
func refChooseSubtree(entries []Entry, r geom.Rect) int {
	idx := make([]int, len(entries))
	enl := make([]float64, len(entries))
	for i := range entries {
		idx[i], enl[i] = i, entries[i].Rect.Enlargement(r)
	}
	if len(entries) > chooseSubtreeCandidates {
		sort.Sort(&candSorter{idx: idx, enl: enl})
		idx = idx[:chooseSubtreeCandidates]
	}
	best := idx[0]
	bestOverlap := refOverlapEnlargement(entries, best, r)
	for _, i := range idx[1:] {
		o := refOverlapEnlargement(entries, i, r)
		if o < bestOverlap ||
			(o == bestOverlap && enl[i] < enl[best]) ||
			(o == bestOverlap && enl[i] == enl[best] && entries[i].Rect.Area() < entries[best].Rect.Area()) {
			best, bestOverlap = i, o
		}
	}
	return best
}

// TestChooseSubtreeMatchesDefinition compares the R* ChooseSubtree, with
// its zero-overlap pruning and sole-least-enlargement shortcut, with the
// full definition on leaf-parents of 2 to 120 entries drawn from a coarse
// grid, so equal enlargements, equal areas, duplicate rectangles and
// candidates that contain the new rectangle are all common.  The huge scale
// makes areas overflow to +Inf and enlargements NaN.
func TestChooseSubtreeMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := MustNew(Options{})
	for trial := 0; trial < 4000; trial++ {
		scale := []float64{1, 1e-160, 1e300}[trial%3]
		cells := 1 + rng.Intn(12)
		n := &Node{Level: 1, Entries: make([]Entry, 2+rng.Intn(119))}
		for i := range n.Entries {
			g := gridRect(rng, cells)
			n.Entries[i].Rect = geom.Rect{XL: g.XL * scale, YL: g.YL * scale, XU: g.XU * scale, YU: g.YU * scale}
		}
		g := gridRect(rng, 2*cells)
		r := geom.Rect{XL: g.XL * scale, YL: g.YL * scale, XU: g.XU * scale, YU: g.YU * scale}
		if got, want := tr.chooseSubtree(n, r), refChooseSubtree(n.Entries, r); got != want {
			t.Fatalf("trial %d: %d entries, r %v: chose %d, the definition chooses %d", trial, len(n.Entries), r, got, want)
		}
	}
}

// BenchmarkChooseSubtree times one R* ChooseSubtree at a leaf-parent: 20 000
// small rectangles bulk-loaded into 4 KiB pages give a root with about 110
// leaf children, and the new rectangles are drawn like the stored ones.
func BenchmarkChooseSubtree(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	tr, err := BulkLoadSTR(Options{PageSize: storage.PageSize4K}, randomItems(rng, 20000, 0.004))
	if err != nil {
		b.Fatal(err)
	}
	if tr.Root().Level != 1 {
		b.Fatalf("root at level %d, want a leaf-parent", tr.Root().Level)
	}
	queries := randomItems(rng, 1024, 0.004)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += tr.chooseSubtree(tr.Root(), queries[i%len(queries)].Rect)
	}
	if sink < 0 {
		b.Fatal(sink)
	}
	b.ReportMetric(float64(len(tr.Root().Entries)), "children")
}
