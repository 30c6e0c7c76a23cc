package join

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// refRestrictSorted is the three-step formulation restrictSorted replaced,
// kept as the reference: the marking scan over the entries in entry order
// (restrictIdx, one counted intersection predicate per entry), a stable sort
// of the surviving indices by lower x-corner, and the gather of their
// (expanded) rectangles.  It returns the comparisons the scan charges.
func refRestrictSorted(entries []rtree.Entry, rect *geom.Rect, eps float64) ([]int32, []geom.Rect, int64) {
	var e executor
	var idx []int32
	if rect == nil {
		idx = appendAllIdx(nil, len(entries))
	} else {
		idx = e.restrictIdx(entries, *rect, nil, eps)
	}
	sort.SliceStable(idx, func(i, j int) bool { return entries[idx[i]].Rect.XL < entries[idx[j]].Rect.XL })
	var rects []geom.Rect
	for _, i := range idx {
		rects = append(rects, expandEps(entries[i].Rect, eps))
	}
	return idx, rects, e.local.Comparisons
}

// checkRestrictSorted runs both formulations over one node and fails on any
// difference in the survivor indices, the gathered rectangles or the
// comparisons charged (which covers the early exit's O(1) tail charge).
func checkRestrictSorted(t testing.TB, entries []rtree.Entry, rect *geom.Rect, eps float64) {
	t.Helper()
	wantIdx, wantRects, wantComps := refRestrictSorted(entries, rect, eps)
	var local metrics.Local
	node := &rtree.Node{Entries: entries}
	// Dirty prefixes check that the routine appends rather than overwrites.
	idx, rects := restrictSorted(node, rect, eps, []int32{-7}, []geom.Rect{{XL: -7}}, &local)
	idx, rects = idx[1:], rects[1:]
	if local.Comparisons != wantComps {
		t.Fatalf("charged %d comparisons, reference %d (n=%d rect=%v eps=%g)", local.Comparisons, wantComps, len(entries), rect, eps)
	}
	if local.SortComparisons != 0 || local.NodeSorts != 0 {
		t.Fatalf("restriction charged sorting: %+v", local)
	}
	if len(idx) != len(wantIdx) || len(rects) != len(wantRects) {
		t.Fatalf("%d survivors / %d rects, reference %d / %d (rect=%v eps=%g)", len(idx), len(rects), len(wantIdx), len(wantRects), rect, eps)
	}
	for k := range wantIdx {
		if idx[k] != wantIdx[k] || rects[k] != wantRects[k] {
			t.Fatalf("survivor %d: entry %d %v, reference entry %d %v", k, idx[k], rects[k], wantIdx[k], wantRects[k])
		}
	}
}

// gridEntries decodes four bytes per entry onto a coarse grid, so duplicate
// lower x-corners (the stability cases) are the rule, not the exception.
func gridEntries(data []byte) []rtree.Entry {
	entries := make([]rtree.Entry, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		xl, yl := float64(data[0]%32), float64(data[2]%32)
		entries = append(entries, rtree.Entry{
			Rect: geom.Rect{XL: xl, YL: yl, XU: xl + float64(data[1]%8), YU: yl + float64(data[3]%8)},
			Data: int32(len(entries)),
		})
	}
	return entries
}

func TestRestrictSortedShapes(t *testing.T) {
	full := gridEntries([]byte{
		5, 2, 5, 2, 5, 0, 9, 1, 1, 7, 0, 7, 30, 1, 30, 1, 5, 3, 1, 1, 12, 4, 12, 4,
		12, 0, 3, 3, 0, 0, 0, 0, 31, 7, 31, 7, 5, 2, 5, 2, 20, 1, 8, 6, 12, 4, 12, 4,
	})
	nodes := map[string][]rtree.Entry{"empty": nil, "single": full[:1], "full": full}
	rects := map[string]*geom.Rect{
		"none":         nil,
		"left of":      {XL: -10, YL: 0, XU: -1, YU: 40},
		"right of":     {XL: 50, YL: 0, XU: 60, YU: 40},
		"covering":     {XL: -1, YL: -1, XU: 100, YU: 100},
		"inside":       {XL: 5, YL: 2, XU: 12, YU: 13},
		"on a key":     {XL: 12, YL: 0, XU: 12, YU: 40},
		"degenerate":   {XL: 5, YL: 5, XU: 5, YU: 5},
		"just outside": {XL: 0, YL: 0, XU: 4.5, YU: 40},
	}
	for nodeName, entries := range nodes {
		for rectName, rect := range rects {
			for _, eps := range []float64{0, 0.5, 3} {
				t.Run(fmt.Sprintf("%s/%s/eps=%g", nodeName, rectName, eps), func(t *testing.T) {
					checkRestrictSorted(t, entries, rect, eps)
				})
			}
		}
	}
}

// TestRestrictSortedQuick crosses the stable sort's insertion block size
// (20) with nodes of up to 300 entries on a grid coarse enough for long runs
// of equal keys.
func TestRestrictSortedQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*rng.Intn(300))
		rng.Read(data)
		entries := gridEntries(data)
		var rect *geom.Rect
		if rng.Intn(8) > 0 {
			xl, yl := float64(rng.Intn(48)-8), float64(rng.Intn(48)-8)
			rect = &geom.Rect{XL: xl, YL: yl, XU: xl + float64(rng.Intn(24)), YU: yl + float64(rng.Intn(24))}
		}
		checkRestrictSorted(t, entries, rect, []float64{0, 0, 0.25, 2}[rng.Intn(4)])
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRestrictSortedRounding leaves the grid: float32-rounded coordinates, as
// pages store them, under expansions that do not round exactly.  The window's
// cuts compare x-eps and x+eps computed from the running maximum and the
// sort keys, the body compares them computed from each entry; they agree
// because rounding is monotone.
func TestRestrictSortedRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	coord := func() float64 { return float64(float32(rng.Float64())) }
	for trial := 0; trial < 3000; trial++ {
		entries := make([]rtree.Entry, rng.Intn(120))
		for i := range entries {
			x, y := coord(), coord()
			entries[i] = rtree.Entry{
				Rect: geom.Rect{XL: x, YL: y, XU: float64(float32(x + 0.05*rng.Float64())), YU: float64(float32(y + 0.05*rng.Float64()))},
				Data: int32(i),
			}
		}
		// Half the rectangles take their edges from entries: ties at both cuts.
		x, y := coord(), coord()
		rect := geom.Rect{XL: x, YL: y, XU: x + 0.2*rng.Float64(), YU: y + 0.5*rng.Float64()}
		if len(entries) > 0 && trial%2 == 0 {
			a, b := entries[rng.Intn(len(entries))].Rect, entries[rng.Intn(len(entries))].Rect
			rect.XL, rect.XU = min(a.XU, b.XL), max(a.XU, b.XL)
		}
		eps := []float64{0, 0.0025, 0.1 * rng.Float64()}[trial%3]
		if eps > 0 && trial%2 == 0 {
			rect.XL += eps // so that some entry's XU + eps meets it
		}
		checkRestrictSorted(t, entries, &rect, eps)
	}
}

// FuzzRestrictSorted decodes a node, a restriction rectangle (or none) and an
// expansion from the fuzz bytes.
func FuzzRestrictSorted(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0), byte(0), byte(0), byte(0), byte(0))
	f.Add([]byte{5, 2, 5, 2}, byte(1), byte(0), byte(0), byte(40), byte(40), byte(0))
	f.Add([]byte{5, 2, 5, 2, 5, 0, 9, 1, 1, 7, 0, 7, 30, 1, 30, 1, 5, 3, 1, 1}, byte(1), byte(4), byte(0), byte(8), byte(40), byte(2))
	f.Add([]byte{5, 2, 5, 2, 5, 0, 9, 1, 1, 7, 0, 7, 30, 1, 30, 1, 5, 3, 1, 1}, byte(1), byte(36), byte(0), byte(8), byte(40), byte(1))
	f.Add([]byte{3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1}, byte(0), byte(0), byte(0), byte(0), byte(0), byte(3))
	// The window's edges.  Twelve entries with lower corners 1, 5 and 20.
	window := []byte{5, 2, 5, 2, 1, 1, 9, 1, 20, 3, 0, 7, 5, 0, 1, 1, 1, 0, 3, 3, 20, 0, 20, 0, 5, 7, 0, 0, 1, 6, 30, 1, 20, 7, 2, 2, 5, 2, 5, 2, 1, 1, 9, 1, 20, 3, 0, 7}
	// Every entry ends left of rect: both cuts at the end, all charged 2.
	f.Add(window, byte(1), byte(63), byte(0), byte(5), byte(63), byte(0))
	// Every entry begins right of rect: both cuts at 0, all charged 1.
	f.Add(window, byte(1), byte(0), byte(0), byte(7), byte(63), byte(0))
	// An empty window between a group left of rect and a group right of it.
	f.Add([]byte{1, 1, 5, 2, 20, 3, 5, 2, 1, 0, 5, 2, 20, 0, 5, 2}, byte(1), byte(13), byte(0), byte(5), byte(63), byte(0))
	// Ties at the lower cut: entries ending exactly at rect.XL (7)...
	f.Add(window, byte(1), byte(15), byte(0), byte(9), byte(63), byte(0))
	// ...and at the upper cut: entries beginning exactly at rect.XU (5, 20).
	f.Add(window, byte(1), byte(8), byte(0), byte(5), byte(63), byte(0))
	f.Add(window, byte(1), byte(10), byte(0), byte(18), byte(63), byte(0))
	// The same ties met by the expansion: XU + 1 == rect.XL, XL - 1 == rect.XU.
	f.Add(window, byte(1), byte(16), byte(0), byte(9), byte(63), byte(4))
	f.Add(window, byte(1), byte(8), byte(0), byte(4), byte(63), byte(4))
	// An expansion that does not fall on the grid, and a degenerate rect.
	f.Add(window, byte(1), byte(14), byte(3), byte(0), byte(0), byte(7))
	f.Fuzz(func(t *testing.T, node []byte, restricted, xl, yl, w, h, epsQ byte) {
		if len(node) > 4*400 {
			node = node[:4*400]
		}
		var rect *geom.Rect
		if restricted%2 == 1 {
			// xl ranges over [-8, 56): left of, inside and right of the grid.
			x, y := float64(xl%64)-8, float64(yl%64)-8
			rect = &geom.Rect{XL: x, YL: y, XU: x + float64(w%64), YU: y + float64(h%64)}
		}
		checkRestrictSorted(t, gridEntries(node), rect, float64(epsQ%8)/4)
	})
}

// TestRestrictSortedWarmBuffersDoNotAllocate pins the reservation: buffers
// that went through one restriction of a full node hold any window of it.
func TestRestrictSortedWarmBuffersDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 4*204)
	rng.Read(data)
	node := &rtree.Node{Entries: gridEntries(data)}
	var local metrics.Local
	idx, rects := restrictSorted(node, nil, 0.5, nil, nil, &local)
	rect := &geom.Rect{XL: 6, YL: 3, XU: 22, YU: 30}
	if got, _ := restrictSorted(node, rect, 0.5, idx[:0], rects[:0], &local); len(got) == 0 || len(got) == len(node.Entries) {
		t.Fatalf("%d of %d survivors: the window is not a proper one", len(got), len(node.Entries))
	}
	allocs := testing.AllocsPerRun(20, func() {
		idx, rects = restrictSorted(node, rect, 0.5, idx[:0], rects[:0], &local)
	})
	if allocs != 0 {
		t.Fatalf("restrictSorted allocated %.0f times per run on warm buffers", allocs)
	}
}

// TestConcurrentJoinsBuildOrdersOnce starts eight joins at the same moment
// over freshly bulk-loaded trees, so every goroutine reads the nodes'
// xl-orders at once, with its own helpers beside it (run under -race in CI).
// The orders are a pure function of the entries: every join must return the
// pairs, in the order, and the counters of a join run alone afterwards —
// including the sorting charge, which is the node's stored count no matter
// who built the order.
func TestConcurrentJoinsBuildOrdersOnce(t *testing.T) {
	itemsR := datagen.Generate(datagen.Config{Kind: datagen.Streets, Count: 6000, Seed: 42})
	itemsS := datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: 6000, Seed: 43})
	for _, pred := range []Predicate{{}, {Kind: PredWithinDist, Epsilon: 0.002}} {
		r, err := rtree.BulkLoadSTR(rtree.Options{PageSize: storage.PageSize1K}, itemsR)
		if err != nil {
			t.Fatal(err)
		}
		s, err := rtree.BulkLoadSTR(rtree.Options{PageSize: storage.PageSize1K}, itemsS)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Method: SJ4, BufferBytes: 64 << 10, UsePathBuffer: true, Predicate: pred}
		results := make([]*Result, 8)
		errs := make([]error, len(results))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i], errs[i] = Join(r, s, opts)
			}(i)
		}
		close(start)
		wg.Wait()
		alone, err := Join(r, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if res.Metrics != alone.Metrics {
				t.Fatalf("%+v: concurrent join %d counted %+v, alone %+v", pred, i, res.Metrics, alone.Metrics)
			}
			if len(res.Pairs) != len(alone.Pairs) {
				t.Fatalf("%+v: join %d found %d pairs, alone %d", pred, i, len(res.Pairs), len(alone.Pairs))
			}
			for k := range alone.Pairs {
				if res.Pairs[k] != alone.Pairs[k] {
					t.Fatalf("%+v: join %d pair %d is %v, alone %v", pred, i, k, res.Pairs[k], alone.Pairs[k])
				}
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
