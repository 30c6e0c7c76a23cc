package rtree

import (
	"sort"

	"repro/internal/geom"
)

// XLOrder is a node's entries in the order the plane sweep consumes them
// (section 4.2): sorted by the lower x-corner, ties in entry order.  It lives
// beside Node.Entries rather than in them, so entry order — and with it the
// page layout, the structural goldens and exact-match deletes — is untouched.
// Values are immutable once published.
type XLOrder struct {
	// Perm is the permutation of 0..len(Entries)-1 that lists the entries in
	// stable ascending Rect.XL order.
	Perm []int32
	// PrefixMaxXU[j] is the largest Rect.XU among the entries at positions
	// 0..j of Perm.  A scan leftwards from some position can stop at j once
	// PrefixMaxXU[j] lies far enough left of the query: no entry at or before
	// j reaches further right (the kNN leaf kernel's left window edge).
	PrefixMaxXU []float64
	// SortComparisons is the exact number of key comparisons sort.Stable
	// needed to produce Perm from entry order: the cost of sorting the page
	// once, which the join charges on every counted read of the page
	// (Table 4 of the paper prices one sorting pass per page read).
	SortComparisons int64
}

// XLOrder returns the node's xl-order, building it on first use.  The order
// is a pure function of Entries, so concurrent readers of an immutable node
// (parallel join workers, daemon readers of one epoch) may race to build it:
// every builder publishes the same value.  Every in-place mutation drops it
// (setEntries, setRect) and copyNode never carries it over, so an order can
// never outlive the entries it was built from; CheckInvariants verifies that.
func (n *Node) XLOrder() *XLOrder {
	if o := n.xlOrder.Load(); o != nil {
		return o
	}
	o := buildXLOrder(n.Entries)
	n.xlOrder.Store(o)
	return o
}

// buildXLOrder stable-sorts the entry indices by lower x-corner, counting the
// key comparisons, and takes the running maximum of XU along the result.
func buildXLOrder(entries []Entry) *XLOrder {
	s := xlSorter{perm: make([]int32, len(entries)), entries: entries}
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	sort.Stable(&s)
	return &XLOrder{Perm: s.perm, PrefixMaxXU: prefixMaxXU(entries, s.perm), SortComparisons: s.comps}
}

// prefixMaxXU is one pass over an already sorted page; it is not part of the
// sort Table 4 prices, so SortComparisons does not include it.
func prefixMaxXU(entries []Entry, perm []int32) []float64 {
	out := make([]float64, len(perm))
	for j, i := range perm {
		out[j] = entries[i].Rect.XU
		if j > 0 && out[j-1] > out[j] {
			out[j] = out[j-1]
		}
	}
	return out
}

type xlSorter struct {
	perm    []int32
	entries []Entry
	comps   int64
}

func (s *xlSorter) Len() int { return len(s.perm) }

func (s *xlSorter) Less(i, j int) bool {
	s.comps++
	return s.entries[s.perm[i]].Rect.XL < s.entries[s.perm[j]].Rect.XL
}

func (s *xlSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }

// setEntries replaces the node's entry slice.  Together with setRect it is
// the only way the mutation paths change a node's entries in place, which is
// what keeps the xl-order from going stale.  Only code filling a node it has
// just allocated (the bulk packer, the page loader, copyNode) assigns Entries
// directly.
func (n *Node) setEntries(entries []Entry) {
	n.Entries = entries
	n.dropXLOrder()
}

// setRect replaces the rectangle of entry i.
func (n *Node) setRect(i int, r geom.Rect) {
	n.Entries[i].Rect = r
	n.dropXLOrder()
}

// dropXLOrder forgets the order; the load keeps the common case (a node the
// join never swept) free of an atomic store on the insert path.
func (n *Node) dropXLOrder() {
	if n.xlOrder.Load() != nil {
		n.xlOrder.Store(nil)
	}
}
