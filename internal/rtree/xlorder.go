package rtree

import (
	"slices"

	"repro/internal/geom"
)

// XLOrder is a node's entries in the order the plane sweep consumes them
// (section 4.2): sorted by the lower x-corner, ties in entry order.  It lives
// beside Node.Entries rather than in them, so entry order — and with it the
// page layout, the structural goldens and exact-match deletes — is untouched.
// Values are immutable once published.
//
// The order is also cut into strips of StripLen consecutive positions, each
// kept a second time sorted on the other axis, which lets the kNN leaf kernel
// bound its scan in y as well as in x (section 4's restrict, sort and sweep,
// applied to the second axis).
type XLOrder struct {
	// Perm is the permutation of 0..len(Entries)-1 that lists the entries in
	// stable ascending Rect.XL order.
	Perm []int32
	// PrefixMaxXU[j] is the largest Rect.XU among the entries at positions
	// 0..j of Perm.  A scan leftwards from some position can stop at j once
	// PrefixMaxXU[j] lies far enough left of the query: no entry at or before
	// j reaches further right (the kNN leaf kernel's left window edge).
	PrefixMaxXU []float64
	// YPerm holds, for every strip Perm[a:b] (a a multiple of StripLen, b the
	// next one or len(Perm)), the same entry indices at YPerm[a:b] in stable
	// ascending Rect.YL order: ties keep their xl-order.
	YPerm []int32
	// PrefixMaxYU[j] is the largest Rect.YU among the entries at positions
	// a..j of YPerm, where a is the first position of j's strip: the running
	// maximum restarts at every strip, so it is PrefixMaxXU's counterpart for
	// a downward scan inside one strip.
	PrefixMaxYU []float64
	// SortComparisons is the exact number of key comparisons sort.Stable
	// needed to produce Perm from entry order: the cost of sorting the page
	// once, which the join charges on every counted read of the page
	// (Table 4 of the paper prices one sorting pass per page read).
	SortComparisons int64
}

// StripLen is the number of consecutive xl-order positions one strip of
// XLOrder.YPerm covers.  It is a constant, not a tuning knob: about a
// square root of a 4 KiB leaf's 200 entries, so the kNN kernel's x-step
// and y-scan stay short together.
const StripLen = 16

// XLOrder returns the node's xl-order, which the writer builds before the
// tree is ready (BulkLoadSTR while it packs, makeReady for the rest): a
// reader only reads it.  Every in-place mutation clears it and copyNode never
// carries it over, so an order never outlives its entries; on a ready tree
// every node has one (CheckInvariants verifies both).
func (n *Node) XLOrder() *XLOrder { return n.xlOrder }

// buildXLOrder stable-sorts the entry indices by lower x-corner, counting the
// key comparisons, takes the running maximum of XU along the result and
// builds the y-sorted strips.  The sort runs on keyed records, in a stack
// buffer for every page up to maxStackOrder entries, through
// slices.SortStableFunc: it makes sort.Stable's moves and calls the
// comparison once per Less, so counting the calls counts sort.Stable's
// comparisons.  Both index arrays share one allocation, as do both running
// maxima.
func buildXLOrder(entries []Entry) *XLOrder {
	n := len(entries)
	var stack [maxStackOrder]keyed
	recs := stack[:0]
	if n > maxStackOrder {
		recs = make([]keyed, 0, n)
	}
	for i := range entries {
		recs = append(recs, keyed{key: entries[i].Rect.XL, idx: int32(i)})
	}
	var comps int64
	slices.SortStableFunc(recs, func(a, b keyed) int {
		comps++
		return ascending(a, b)
	})
	idx := make([]int32, 2*n)
	for j, r := range recs {
		idx[j] = r.idx
	}
	maxima := make([]float64, 2*n)
	o := &XLOrder{Perm: idx[:n:n], PrefixMaxXU: maxima[:n:n], YPerm: idx[n:], PrefixMaxYU: maxima[n:], SortComparisons: comps}
	prefixMaxXU(entries, o.Perm, o.PrefixMaxXU)
	yStrips(entries, o.Perm, o.YPerm, o.PrefixMaxYU)
	return o
}

// maxStackOrder is the largest node whose xl-order sort runs in a stack
// buffer: a full 4 KiB page (204 entries) fits.
const maxStackOrder = 256

// prefixMaxXU fills out with the running maximum of XU along perm.  It is
// one pass over an already sorted page, not part of the sort Table 4 prices,
// so SortComparisons does not include it.
func prefixMaxXU(entries []Entry, perm []int32, out []float64) {
	for j, i := range perm {
		out[j] = entries[i].Rect.XU
		if j > 0 && out[j-1] > out[j] {
			out[j] = out[j-1]
		}
	}
}

// yStrips fills yperm with every StripLen-position strip of perm re-sorted
// stably by YL, and maxYU with each strip's running maximum of YU.  A strip
// is short, so an insertion sort on a stack copy of its keys, which
// allocates nothing, does it; like prefixMaxXU it stays out of
// SortComparisons.
func yStrips(entries []Entry, perm, yperm []int32, maxYU []float64) {
	copy(yperm, perm)
	var keys [StripLen]float64
	for a := 0; a < len(yperm); a += StripLen {
		strip := yperm[a:min(a+StripLen, len(yperm))]
		for i, e := range strip {
			keys[i] = entries[e].Rect.YL
		}
		for i := 1; i < len(strip); i++ {
			e, yl := strip[i], keys[i]
			j := i
			for ; j > 0 && keys[j-1] > yl; j-- {
				keys[j], strip[j] = keys[j-1], strip[j-1]
			}
			keys[j], strip[j] = yl, e
		}
		m := maxYU[a : a+len(strip)]
		for j, e := range strip {
			m[j] = entries[e].Rect.YU
			if j > 0 && m[j-1] > m[j] {
				m[j] = m[j-1]
			}
		}
	}
}

// setEntries replaces the node's entry slice.  Together with setRect and
// appendEntry it is the only way the mutation paths change a node's entries
// in place, which is what keeps the xl-order from going stale and the
// writer's sibling order current.  Only code filling a node it has just
// allocated (the bulk packer, the page loader, copyNode) assigns Entries
// directly.
func (n *Node) setEntries(entries []Entry) {
	n.Entries = entries
	n.xlOrder = nil
	if n.sib != nil {
		n.sib.valid = false
	}
}

// appendEntry adds one entry at the end of the node's entries.
func (n *Node) appendEntry(e Entry) {
	n.Entries = append(n.Entries, e)
	n.xlOrder = nil
	if n.sib != nil && n.sib.valid {
		n.sib.added(n.Entries)
	}
}

// setRect replaces the rectangle of entry i.
func (n *Node) setRect(i int, r geom.Rect) {
	old := n.Entries[i].Rect.XL
	n.Entries[i].Rect = r
	n.xlOrder = nil
	if n.sib != nil && n.sib.valid {
		n.sib.moved(n.Entries, i, old)
	}
}
