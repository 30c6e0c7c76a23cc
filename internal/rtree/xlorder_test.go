package rtree

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// TestXLOrderMatchesSliceStable asserts that a node's order is the
// permutation sort.SliceStable applies to a copy of the entries and that the
// stored count is exactly the key comparisons that sort performs, across
// sizes below, at and far above the stable sort's insertion block size.  The
// join's sorting cost measure (paper Table 4) is this count.
func TestXLOrderMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 5, 19, 20, 21, 40, 57, 100, 333, 1000} {
		for trial := 0; trial < 20; trial++ {
			entries := make([]Entry, n)
			for i := range entries {
				// Coarse keys force ties, exercising stability.
				// Widths and heights vary, so neither running maximum is
				// simply the current entry's.
				x, y := float64(rng.Intn(n/4+1)), float64(rng.Intn(8))
				entries[i] = Entry{Rect: geom.Rect{XL: x, YL: y, XU: x + float64(rng.Intn(8)), YU: y + float64(rng.Intn(8))}, Data: int32(i)}
			}
			ref := append([]Entry(nil), entries...)
			var refComps int64
			sort.SliceStable(ref, func(i, j int) bool {
				refComps++
				return ref[i].Rect.XL < ref[j].Rect.XL
			})

			o := buildXLOrder(entries)
			if o.SortComparisons != refComps {
				t.Fatalf("n=%d trial=%d: %d comparisons, sort.SliceStable charged %d", n, trial, o.SortComparisons, refComps)
			}
			if len(o.Perm) != n {
				t.Fatalf("n=%d: order lists %d entries", n, len(o.Perm))
			}
			if len(o.PrefixMaxXU) != n {
				t.Fatalf("n=%d: %d running XU maxima", n, len(o.PrefixMaxXU))
			}
			maxXU := math.Inf(-1)
			for k, i := range o.Perm {
				if entries[i].Data != ref[k].Data {
					t.Fatalf("n=%d trial=%d: permutation differs from sort.SliceStable at %d", n, trial, k)
				}
				maxXU = math.Max(maxXU, ref[k].Rect.XU)
				if o.PrefixMaxXU[k] != maxXU {
					t.Fatalf("n=%d trial=%d: running XU maximum %g at %d, want %g", n, trial, o.PrefixMaxXU[k], k, maxXU)
				}
			}
			// Each strip of StripLen positions, stable-sorted by YL on its
			// own, with its own running maximum of YU.
			if len(o.YPerm) != n || len(o.PrefixMaxYU) != n {
				t.Fatalf("n=%d: %d strip positions, %d running YU maxima", n, len(o.YPerm), len(o.PrefixMaxYU))
			}
			for a := 0; a < n; a += StripLen {
				strip := append([]Entry(nil), ref[a:min(a+StripLen, n)]...)
				sort.SliceStable(strip, func(i, j int) bool { return strip[i].Rect.YL < strip[j].Rect.YL })
				maxYU := math.Inf(-1)
				for k, e := range strip {
					if entries[o.YPerm[a+k]].Data != e.Data {
						t.Fatalf("n=%d trial=%d: strip %d differs from sort.SliceStable at %d", n, trial, a/StripLen, k)
					}
					maxYU = math.Max(maxYU, e.Rect.YU)
					if o.PrefixMaxYU[a+k] != maxYU {
						t.Fatalf("n=%d trial=%d: strip %d running YU maximum %g at %d, want %g", n, trial, a/StripLen, o.PrefixMaxYU[a+k], k, maxYU)
					}
				}
			}
		}
	}
}

// TestCheckInvariantsDetectsStaleOrder corrupts a node of a ready tree behind
// the mutators' back in each way an order can be wrong.
func TestCheckInvariantsDetectsStaleOrder(t *testing.T) {
	build := func() (*Tree, *Node) {
		tr := MustNew(smallOpts())
		tr.InsertItems(randomItems(rand.New(rand.NewSource(9)), 300, 0.02))
		tr.makeReady()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("ready tree invalid: %v", err)
		}
		var leaf *Node
		tr.Walk(func(n *Node) {
			if leaf == nil && n.IsLeaf() && len(n.Entries) > 2 {
				leaf = n
			}
		})
		return tr, leaf
	}
	cases := []struct {
		name    string
		corrupt func(n *Node)
	}{
		{"rect moved in place", func(n *Node) {
			// Move the leftmost entry to the far right and the rightmost to
			// the far left: the leaf's x-intervals, and with them its MBR
			// and its parent's rectangle, stay what they were.
			o := n.XLOrder()
			a, b := &n.Entries[o.Perm[0]].Rect, &n.Entries[o.Perm[len(n.Entries)-1]].Rect
			a.XL, a.XU, b.XL, b.XU = b.XL, b.XU, a.XL, a.XU
		}},
		{"entries swapped", func(n *Node) {
			o := n.XLOrder()
			a, b := o.Perm[0], o.Perm[len(o.Perm)-1]
			n.Entries[a], n.Entries[b] = n.Entries[b], n.Entries[a]
		}},
		{"count corrupted", func(n *Node) {
			o := n.XLOrder()
			n.xlOrder = &XLOrder{Perm: o.Perm, PrefixMaxXU: o.PrefixMaxXU, SortComparisons: o.SortComparisons + 1}
		}},
		{"not a permutation", func(n *Node) {
			o := n.XLOrder()
			perm := append([]int32(nil), o.Perm...)
			perm[1] = perm[0]
			n.xlOrder = &XLOrder{Perm: perm, PrefixMaxXU: o.PrefixMaxXU, SortComparisons: o.SortComparisons}
		}},
		{"XU grown in place", func(n *Node) {
			// The permutation and its sort cost only depend on XL, so a
			// rectangle widened behind the mutators' back leaves both valid
			// and only the running maximum stale — too low, the direction
			// in which the kNN window would cut off a neighbour.
			i := n.XLOrder().Perm[0]
			n.Entries[i].Rect.XU = n.Entries[n.XLOrder().Perm[len(n.Entries)-1]].Rect.XU
		}},
		{"running maximum missing", func(n *Node) {
			o := n.XLOrder()
			n.xlOrder = &XLOrder{Perm: o.Perm, SortComparisons: o.SortComparisons}
		}},
		{"running maximum from another node", func(n *Node) {
			o := n.XLOrder()
			stale := append([]float64(nil), o.PrefixMaxXU...)
			stale[len(stale)-1] = stale[0]
			n.xlOrder = &XLOrder{Perm: o.Perm, PrefixMaxXU: stale, SortComparisons: o.SortComparisons}
		}},
		{"tie out of index order", func(n *Node) {
			// Both entries take the union of their x-intervals, which keeps
			// the leaf's MBR.
			a, b := &n.Entries[0].Rect, &n.Entries[1].Rect
			a.XL, a.XU = min(a.XL, b.XL), max(a.XU, b.XU)
			b.XL, b.XU = a.XL, a.XU
			o := buildXLOrder(n.Entries)
			perm := append([]int32(nil), o.Perm...)
			for k := range perm[:len(perm)-1] {
				if perm[k] == 0 && perm[k+1] == 1 {
					perm[k], perm[k+1] = 1, 0
				}
			}
			n.xlOrder = &XLOrder{Perm: perm, PrefixMaxXU: o.PrefixMaxXU, SortComparisons: o.SortComparisons}
		}},
	}
	for _, c := range cases {
		tr, leaf := build()
		c.corrupt(leaf)
		if err := tr.CheckInvariants(); !errors.Is(err, ErrStaleOrder) {
			t.Errorf("%s: CheckInvariants = %v, want ErrStaleOrder", c.name, err)
		}
	}

	// Shrinking the node drops out of the order's range.
	tr, leaf := build()
	leaf.Entries = leaf.Entries[:len(leaf.Entries)-1]
	tr.size--
	if err := tr.CheckInvariants(); !errors.Is(err, ErrStaleOrder) {
		t.Errorf("entry removed in place: CheckInvariants = %v, want ErrStaleOrder", err)
	}
}

// TestCheckInvariantsDetectsUnreadyNodes: on a ready tree every node must
// carry its order, so a node whose order is missing is reported.  A tree
// mutated since it was ready may lack orders.
func TestCheckInvariantsDetectsUnreadyNodes(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		tr, err := Build(smallOpts(), randomItems(rand.New(rand.NewSource(9)), 300, 0.02), bulk)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("bulk=%v: ready tree invalid: %v", bulk, err)
		}
		var leaf *Node
		tr.Walk(func(n *Node) {
			if n.IsLeaf() {
				leaf = n
			}
		})
		order := leaf.xlOrder
		leaf.xlOrder = nil
		if err := tr.CheckInvariants(); !errors.Is(err, ErrNotReady) {
			t.Errorf("bulk=%v: node without an order: CheckInvariants = %v, want ErrNotReady", bulk, err)
		}
		leaf.xlOrder = order
		tr.Insert(geom.Rect{XL: 0.5, YL: 0.5, XU: 0.51, YU: 0.51}, 1<<20)
		if tr.Ready() {
			t.Fatalf("bulk=%v: still ready after an insert", bulk)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("bulk=%v: mutated tree: %v", bulk, err)
		}
	}
}

// TestCheckInvariantsDetectsStaleStrips corrupts the y-sorted strips of a
// leaf of a ready tree in each way they can go stale while the xl-order itself stays
// right.  The leaves of 1 KiB pages hold three strips and more.
func TestCheckInvariantsDetectsStaleStrips(t *testing.T) {
	build := func() (*Tree, *Node) {
		tr := MustNew(Options{PageSize: 1024})
		tr.InsertItems(randomItems(rand.New(rand.NewSource(9)), 600, 0.02))
		tr.makeReady()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("ready tree invalid: %v", err)
		}
		var leaf *Node
		tr.Walk(func(n *Node) {
			if leaf == nil && n.IsLeaf() && len(n.Entries) > 2*StripLen {
				leaf = n
			}
		})
		if leaf == nil {
			t.Fatal("no leaf with three strips")
		}
		return tr, leaf
	}
	// restrip publishes the node's order with its strip fields edited.
	restrip := func(n *Node, edit func(yperm []int32, maxYU []float64)) {
		o := n.XLOrder()
		yperm := append([]int32(nil), o.YPerm...)
		maxYU := append([]float64(nil), o.PrefixMaxYU...)
		edit(yperm, maxYU)
		n.xlOrder = &XLOrder{Perm: o.Perm, PrefixMaxXU: o.PrefixMaxXU, YPerm: yperm, PrefixMaxYU: maxYU, SortComparisons: o.SortComparisons}
	}
	cases := []struct {
		name    string
		corrupt func(n *Node)
	}{
		{"strip out of YL order", func(n *Node) {
			restrip(n, func(yperm []int32, _ []float64) { yperm[0], yperm[StripLen-1] = yperm[StripLen-1], yperm[0] })
		}},
		{"index of another strip", func(n *Node) {
			restrip(n, func(yperm []int32, _ []float64) { yperm[StripLen] = yperm[0] })
		}},
		{"strips missing", func(n *Node) {
			o := n.XLOrder()
			n.xlOrder = &XLOrder{Perm: o.Perm, PrefixMaxXU: o.PrefixMaxXU, SortComparisons: o.SortComparisons}
		}},
		{"running YU maximum not restarted", func(n *Node) {
			restrip(n, func(_ []int32, maxYU []float64) { maxYU[StripLen] = max(maxYU[StripLen], maxYU[StripLen-1]) + 1 })
		}},
		{"YU grown in place", func(n *Node) {
			// Only the strip's running maximum depends on YU, and a
			// rectangle grown inside its leaf's MBR leaves every other check
			// passing: the running maximum is then too low, the direction in
			// which the kNN strip scan would cut off a neighbour.
			o := n.XLOrder()
			top := n.MBR().YU
			for _, i := range o.YPerm[:StripLen] {
				if n.Entries[i].Rect.YU < top {
					n.Entries[i].Rect.YU = top
					return
				}
			}
			t.Fatal("strip 0 already reaches the leaf's top")
		}},
	}
	for _, c := range cases {
		tr, leaf := build()
		c.corrupt(leaf)
		if err := tr.CheckInvariants(); !errors.Is(err, ErrStaleOrder) {
			t.Errorf("%s: CheckInvariants = %v, want ErrStaleOrder", c.name, err)
		}
	}
}

// TestCheckInvariantsRejectsMalformedEntries: an entry with its corners out
// of order passes every structural check (its parent's rectangle is built
// from the same swapped corners) yet breaks every join's exactness.  The
// tree is the shape that showed it: 3 000 rectangles on 1 KiB pages with XL
// and XU swapped on every seventh.
func TestCheckInvariantsRejectsMalformedEntries(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(16)), 3000, 0.02)
	for i := 0; i < len(items); i += 7 {
		r := &items[i].Rect
		r.XL, r.XU = r.XU, r.XL
	}
	for _, bulk := range []bool{false, true} {
		tr, err := Build(Options{PageSize: 1024}, items, bulk)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); !errors.Is(err, ErrMalformedEntry) {
			t.Errorf("bulk=%v: CheckInvariants = %v, want ErrMalformedEntry", bulk, err)
		}
	}
	for _, r := range []geom.Rect{{XL: math.NaN(), XU: 1, YU: 1}, {XU: math.Inf(1), YU: 1}, {XU: 1, YL: 1}} {
		tr := MustNew(Options{PageSize: 1024})
		tr.Insert(geom.Rect{XU: 0.5, YU: 0.5}, 1)
		tr.Root().Entries[0].Rect = r
		if err := tr.CheckInvariants(); !errors.Is(err, ErrMalformedEntry) {
			t.Errorf("entry %v: CheckInvariants = %v, want ErrMalformedEntry", r, err)
		}
	}
}

// BenchmarkXLOrder times building one full 4 KiB leaf's order: the stable
// x-sort, both running maxima and the y-sorted strips.
func BenchmarkXLOrder(b *testing.B) {
	tr := MustNew(Options{PageSize: storage.PageSize4K})
	items := randomItems(rand.New(rand.NewSource(31)), tr.maxEnt, 0.02)
	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry{Rect: it.Rect, Data: it.Data}
	}
	b.ReportAllocs()
	for b.Loop() {
		buildXLOrder(entries)
	}
	b.ReportMetric(float64(len(entries)), "entries")
}

// TestCopyNodeStartsWithoutOrder: a copy-on-write copy is made to be mutated,
// so it never inherits the shared node's order, and the shared node keeps
// its own.
func TestCopyNodeStartsWithoutOrder(t *testing.T) {
	tr := MustNew(smallOpts())
	tr.InsertItems(randomItems(rand.New(rand.NewSource(3)), 200, 0.02))
	snap := tr.Snapshot()
	shared := snap.Root()
	own := tr.ownRoot()
	if own == shared {
		t.Fatal("root not copied after a snapshot")
	}
	if own.xlOrder != nil {
		t.Fatal("copyNode carried the xl-order over")
	}
	if shared.xlOrder == nil {
		t.Fatal("copying dropped the shared node's order")
	}
}

// TestHintAppendDropsOrder: the insertion buffer's leaf-hint fast path
// appends to a leaf without descending to it, so it is the one mutation that
// reaches a node the tree was made ready with since the previous flush.
func TestHintAppendDropsOrder(t *testing.T) {
	tr := MustNew(Options{PageSize: 1024})
	tr.InsertItems(randomItems(rand.New(rand.NewSource(21)), 300, 0.02))
	buf := NewInsertBuffer(tr, 8)
	buf.Stage(geom.Rect{XL: 0.5, YL: 0.5, XU: 0.51, YU: 0.51}, 1000)
	buf.Flush() // a full descent; seeds the hint
	for id := int32(1001); id < 1050; id++ {
		if buf.hint == nil {
			t.Fatal("flush left no leaf hint")
		}
		tr.makeReady()
		c := buf.hintMBR.Center()
		hits := buf.HintHits()
		buf.Stage(geom.Rect{XL: c.X, YL: c.Y, XU: c.X, YU: c.Y}, id)
		buf.Flush()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if buf.HintHits() > hits {
			tr.makeReady()
			JoinCheck(t, tr)
			return
		}
	}
	t.Fatal("no staged rectangle took the hint path")
}

// TestMutationDropsRunningMaximum: the running maxima of XU and of YU live
// in the order, so the mutators that drop the order drop them too, and the
// next build sees the widened rectangle.
func TestMutationDropsRunningMaximum(t *testing.T) {
	n := &Node{Entries: []Entry{
		{Rect: geom.Rect{XL: 0, XU: 1}},
		{Rect: geom.Rect{XL: 2, XU: 3}},
		{Rect: geom.Rect{XL: 4, XU: 5}},
	}}
	n.xlOrder = buildXLOrder(n.Entries)
	if got := n.XLOrder().PrefixMaxXU; got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("running maxima %v, want [1 3 5]", got)
	}
	n.setRect(0, geom.Rect{XL: 0, XU: 4.5, YU: 2})
	if n.xlOrder != nil {
		t.Fatal("setRect kept the order")
	}
	n.xlOrder = buildXLOrder(n.Entries)
	if got := n.XLOrder().PrefixMaxXU; got[0] != 4.5 || got[1] != 4.5 || got[2] != 5 {
		t.Fatalf("running maxima %v after widening entry 0, want [4.5 4.5 5]", got)
	}
	if got := n.XLOrder().PrefixMaxYU; got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("running YU maxima %v after heightening entry 0, want [2 2 2]", got)
	}
	n.setEntries(n.Entries[1:])
	if n.xlOrder != nil {
		t.Fatal("setEntries kept the order")
	}
	if got := buildXLOrder(n.Entries).PrefixMaxXU; len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("running maxima %v after removing entry 0, want [3 5]", got)
	}
}
