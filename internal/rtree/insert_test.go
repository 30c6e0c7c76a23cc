package rtree

import (
	"math"
	"math/rand"
	"slices"
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
	tr := MustNew(Options{})
	check := func(entries []Entry, r geom.Rect) {
		t.Helper()
		o := tr.siblings(&Node{Level: 1, Entries: entries})
		for i := range entries {
			want := refOverlapEnlargement(entries, i, r)
			for _, o := range []*siblingOrder{nil, o} {
				got := tr.overlapEnlargement(entries, o, i, r, math.Inf(1))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("entry %d of %v, r %v, window %v: got %v (%#x), full sum %v (%#x)",
						i, entries, r, o != nil, got, math.Float64bits(got), want, math.Float64bits(want))
				}
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
		sort.Sort(&refCandSorter{idx: idx, enl: enl})
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
// its zero-overlap pruning, sole-least-enlargement shortcut, sibling window
// and early exit, with the full definition on leaf-parents of 2 to 205
// entries (a 4 KiB page's capacity plus the overflowing one) drawn from a
// coarse grid, so equal enlargements, equal areas, duplicate rectangles and
// candidates that contain the new rectangle are all common.  Each node then
// goes through the mutations the insert paths make, every one through the
// choke points that keep its sibling order: the chosen entry grows in place
// (insertRec's union), shrinks beside a new sibling (a child split), the
// node keeps a subset and takes the rest back one by one (its own forced
// re-insertion or split), or it is copied for a snapshot.  The choice is
// compared again after every step.  Mirrored rectangles put signed zeros on
// the grid; the tiny scale makes areas subnormal, and the huge scale makes
// them overflow to +Inf and enlargements NaN.  One trial in four uses a fine
// grid, whose enlargements seldom tie.
func TestChooseSubtreeMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := MustNew(Options{})
	const maxEntries = 205
	steps := 0
	for trial := 0; trial < 600; trial++ {
		scale := []float64{1, 1e-160, 1e300}[trial%3]
		cells := 1 + rng.Intn(12)
		if trial%4 == 3 {
			// A fine grid: enlargements rarely tie, so the candidates come
			// from leastDistinct rather than the sort.
			cells = 1 << 20
		}
		draw := func(cells int) geom.Rect {
			g := gridRect(rng, cells)
			if rng.Intn(2) == 0 {
				g.XL, g.XU = -g.XU, -g.XL
			}
			return geom.Rect{XL: g.XL * scale, YL: g.YL * scale, XU: g.XU * scale, YU: g.YU * scale}
		}
		n := &Node{Level: 1, Entries: make([]Entry, 2+rng.Intn(maxEntries-1))}
		for i := range n.Entries {
			n.Entries[i].Rect = draw(cells)
		}
		for step := 0; step < 12; step++ {
			steps++
			r := draw(2 * cells)
			got, want := tr.chooseSubtree(n, r), refChooseSubtree(n.Entries, r)
			if got != want {
				t.Fatalf("trial %d step %d: %d entries, r %v: chose %d, the definition chooses %d",
					trial, step, len(n.Entries), r, got, want)
			}
			switch rng.Intn(5) {
			case 0, 1: // the chosen child took r
				n.setRect(got, n.Entries[got].Rect.Union(r))
			case 2: // the chosen child split
				if len(n.Entries) < maxEntries {
					n.setRect(got, draw(cells))
					n.appendEntry(Entry{Rect: draw(cells)})
				}
			case 3: // the node kept a subset and takes the rest back
				moved := append([]Entry(nil), n.Entries...)
				rng.Shuffle(len(moved), func(i, j int) { moved[i], moved[j] = moved[j], moved[i] })
				keep := 1 + rng.Intn(len(moved))
				n.setEntries(append(n.Entries[:0], moved[:keep]...))
				for _, e := range moved[keep:] {
					if rng.Intn(3) > 0 {
						n.appendEntry(e)
					}
				}
				if len(n.Entries) < 2 {
					n.appendEntry(Entry{Rect: draw(cells)})
				}
			default: // a snapshot's copy carries the order
				n = tr.copyNode(n)
			}
			if n.sib != nil && n.sib.valid {
				if err := checkSiblingOrder(n, n.sib); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			}
		}
	}
	t.Logf("%d choices compared", steps)
}

// TestKeyedSortMatchesSortSort holds every sort on keyed records to the
// sort.Sort (or sort.Stable) over a sort.Interface it replaced, on inputs
// whose keys repeat a lot (and include NaN and signed zeros): the tree
// shapes depend on the permutation of ties, and the two are the same only
// because the standard library generates both from one template.  A Go
// release that changed either would fail here before it moved a golden.
// ChooseSubtree's insertion selection (leastDistinct), where it claims the
// least keys are distinct, must name the sort's first candidates.  The bulk
// load's centre sorts (keyedsort.go's pdqsort, on one goroutine and split
// across several) and a page's xl-order (its counted stable sort) are held
// to sort.Sort and sort.Stable the same way, the xl-order on its comparison
// count too, at lengths up to 300 and from 20 000 to 200 000.
func TestKeyedSortMatchesSortSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	negZero := math.Copysign(0, -1)
	key := func(distinct int) float64 {
		switch k := rng.Intn(distinct + 3); k {
		case distinct:
			return math.NaN()
		case distinct + 1:
			return negZero
		case distinct + 2:
			return 0
		default:
			return float64(k) / 4
		}
	}
	tr := MustNew(Options{})
	a := &tr.build
	selected := 0
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(300)
		distinct := 1 + rng.Intn(12)
		if trial%10 == 0 {
			distinct = 1 << 20
		}
		withNaN := trial%3 == 0
		keys := make([]float64, n)
		entries := make([]Entry, n)
		for i := range keys {
			if keys[i] = key(distinct); !withNaN && math.IsNaN(keys[i]) {
				keys[i] = 1
			}
			entries[i] = Entry{Rect: geom.Rect{XL: key(distinct), YL: key(distinct), XU: key(distinct), YU: key(distinct)}, Data: int32(i)}
		}
		if trial%10 == 5 && n > chooseSubtreeCandidates {
			// Distinct keys but for one tie across the candidates' cut.
			for i, v := range rng.Perm(n) {
				keys[i] = float64(v)
			}
			keys[slices.Index(keys, chooseSubtreeCandidates)] = chooseSubtreeCandidates - 1
		}

		// ChooseSubtree's candidates, ascending area enlargement.
		idx := make([]int, n)
		recs := make([]keyed, n)
		for i := range idx {
			idx[i], recs[i] = i, keyed{key: keys[i], idx: int32(i)}
		}
		sort.Sort(&refCandSorter{idx: idx, enl: keys})
		if n > chooseSubtreeCandidates && !withNaN {
			// The insertion selection stands in for the sort only when its
			// keys are distinct and below the rest.
			if top, ok := leastDistinct(recs, chooseSubtreeCandidates, nil); ok {
				selected++
				for k := range top {
					if int(top[k].idx) != idx[k] {
						t.Fatalf("trial %d: least distinct candidate %d is entry %d, the sort's is %d", trial, k, top[k].idx, idx[k])
					}
				}
			}
		}
		slices.SortFunc(recs, ascending)
		for k := range idx {
			if int(recs[k].idx) != idx[k] {
				t.Fatalf("trial %d: candidate sort differs at position %d", trial, k)
			}
		}

		// Forced re-insertion's distances, descending.
		dists := make([]refDistEntry, n)
		for i := range dists {
			dists[i], recs[i] = refDistEntry{dist: keys[i], e: entries[i]}, keyed{key: keys[i], idx: int32(i)}
		}
		sort.Sort(refDistSorter(dists))
		slices.SortFunc(recs, descending)
		for k := range dists {
			if recs[k].idx != dists[k].e.Data {
				t.Fatalf("trial %d: distance sort differs at position %d", trial, k)
			}
		}

		// The R*-split's four axis sorts.
		for axis := 0; axis < 2; axis++ {
			for corner := 0; corner < 2; corner++ {
				want := append([]Entry(nil), entries...)
				sort.Sort(&refAxisSorter{e: want, axis: axis, upper: corner == 1})
				got := a.sortByAxis(entries, axis, corner)
				for k := range want {
					if got[k].Data != want[k].Data {
						t.Fatalf("trial %d: axis %d corner %d sort differs at position %d", trial, axis, corner, k)
					}
				}
			}
		}

		// The insertion buffer's stable Hilbert-key sort.
		h := refHilbertSorter{keys: make([]uint64, n), order: make([]int32, n)}
		hrecs := make([]hilbertKeyed, n)
		for i := range h.keys {
			h.keys[i], h.order[i] = uint64(rng.Intn(distinct)), int32(i)
			hrecs[i] = hilbertKeyed{key: h.keys[i], idx: int32(i)}
		}
		sort.Stable(&h)
		slices.SortStableFunc(hrecs, byHilbertKey)
		for k := range h.order {
			if hrecs[k].idx != h.order[k] {
				t.Fatalf("trial %d: Hilbert sort differs at position %d", trial, k)
			}
		}

		// The STR bulk load's centre sorts and a page's xl-order.
		checkCenterSorts(t, entries, trial%2, 1, 4)
		checkXLSort(t, entries)
	}
	if selected == 0 {
		t.Fatal("no trial had distinct least keys")
	}

	// Lengths past 2*parallelSortMin, where the bulk load's x-sort hands
	// subranges to other goroutines: few distinct keys with NaN, many with
	// signed zeros, and nearly all distinct.
	for i, n := range []int{20000, 65536, 200000} {
		distinct := []int{3, 1000, 1 << 20}[i]
		entries := make([]Entry, n)
		for j := range entries {
			entries[j] = Entry{Rect: geom.Rect{XL: key(distinct), YL: key(distinct), XU: key(distinct), YU: key(distinct)}, Data: int32(j)}
		}
		checkCenterSorts(t, entries, i%2, 1, 2, 4)
		checkXLSort(t, entries)
	}
}

// checkCenterSorts sorts the entries by the centre coordinate on one axis
// with sortKeyed, once for each goroutine count in procs, and requires
// sort.Sort's permutation over refCenterSorter every time.  Entry i must
// carry Data i.
func checkCenterSorts(t *testing.T, entries []Entry, axis int, procs ...int) {
	t.Helper()
	want := append([]Entry(nil), entries...)
	sort.Sort(&refCenterSorter{e: want, axis: axis})
	recs := make([]keyed, len(entries))
	for _, p := range procs {
		for i := range entries {
			c := entries[i].Rect.Center()
			recs[i] = keyed{key: c.X, idx: int32(i)}
			if axis == 1 {
				recs[i].key = c.Y
			}
		}
		sortKeyed(recs, p)
		for k := range want {
			if recs[k].idx != want[k].Data {
				t.Fatalf("%d entries, axis %d, %d goroutines: centre sort differs at position %d", len(entries), axis, p, k)
			}
		}
	}
}

// checkXLSort requires the entries' xl-order to be sort.Stable's
// permutation over refXLSorter and its SortComparisons that sort's Less
// calls.
func checkXLSort(t *testing.T, entries []Entry) {
	t.Helper()
	ref := refXLSorter{perm: make([]int32, len(entries)), entries: entries}
	for i := range ref.perm {
		ref.perm[i] = int32(i)
	}
	sort.Stable(&ref)
	o := buildXLOrder(entries)
	if !slices.Equal(o.Perm, ref.perm) {
		t.Fatalf("%d entries: xl-order differs from sort.Stable's", len(entries))
	}
	if o.SortComparisons != ref.comps {
		t.Fatalf("%d entries: xl-order counted %d comparisons, sort.Stable made %d", len(entries), o.SortComparisons, ref.comps)
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
