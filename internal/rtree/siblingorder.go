package rtree

import (
	"math"
	"slices"
)

// siblingOrder is the writer's own order of a node's entries by lower
// x-corner, with the running maximum of XU along it: the restriction of
// section 4.2 (the one restrictSorted applies to the joins) applied to the
// R* ChooseSubtree's overlap scan.  A candidate's enlarged rectangle E can
// overlap only the siblings whose x-interval meets [E.XL, E.XU], and in this
// order they lie in one window that two binary searches find: the entries
// that start right of E.XU form a suffix, and those that end left of E.XL a
// prefix, since the running maximum of XU is monotonic.
//
// It is not the published XLOrder: ties may sit in any order, no sort is
// counted, and only the writer reads it.  The mutation choke points
// (setEntries, setRect, appendEntry) keep it current or mark it stale, and
// chooseSubtree rebuilds a stale one on its next use.  An order whose node
// holds an entry with a NaN lower or upper x-corner is never valid (a NaN
// key has no place in a sorted order); such nodes, which CheckInvariants
// rejects, fall back to the full scan.
type siblingOrder struct {
	perm  []int32   // entry indexes in ascending XL; ties in any order
	xl    []float64 // xl[k] is Entries[perm[k]].Rect.XL
	maxXU []float64 // maxXU[k] is the largest XU among perm[0..k]
	valid bool
}

// siblings returns n's sibling order, building it if it is missing or
// stale, or nil if n holds an entry with a NaN x-corner.
func (t *Tree) siblings(n *Node) *siblingOrder {
	o := n.sib
	if o == nil {
		o = newSiblingOrder(max(len(n.Entries), t.maxEnt+1))
		n.sib = o
	}
	if o.valid {
		return o
	}
	recs := t.build.keys[:0]
	for i := range n.Entries {
		r := &n.Entries[i].Rect
		if math.IsNaN(r.XL) || math.IsNaN(r.XU) {
			t.build.keys = recs
			return nil
		}
		recs = append(recs, keyed{key: r.XL, idx: int32(i)})
	}
	t.build.keys = recs
	slices.SortFunc(recs, ascending)
	o.perm, o.xl, o.maxXU = o.perm[:0], o.xl[:0], o.maxXU[:0]
	for _, k := range recs {
		o.perm = append(o.perm, k.idx)
		o.xl = append(o.xl, k.key)
		o.maxXU = append(o.maxXU, 0)
	}
	o.runningMax(n.Entries, 0)
	o.valid = true
	return o
}

// window returns the positions [lo, hi) of the entries whose x-interval can
// meet [xl, xu]: every entry before lo ends left of xl and every entry from
// hi on starts right of xu.  Neither bound may be NaN.
func (o *siblingOrder) window(xl, xu float64) (lo, hi int) {
	hi = o.insertAt(xu)
	// lo: the first position whose running maximum reaches xl.
	a, b := 0, hi
	for a < b {
		m := int(uint(a+b) >> 1)
		if o.maxXU[m] >= xl {
			b = m
		} else {
			a = m + 1
		}
	}
	return a, hi
}

// runningMax recomputes maxXU from position from on.
func (o *siblingOrder) runningMax(entries []Entry, from int) {
	for k := from; k < len(o.perm); k++ {
		m := entries[o.perm[k]].Rect.XU
		if k > 0 && o.maxXU[k-1] > m {
			m = o.maxXU[k-1]
		}
		o.maxXU[k] = m
	}
}

// insertAt returns the first position whose entry starts right of xl: where
// an entry starting at xl goes, after every entry that starts at or left of
// it.
func (o *siblingOrder) insertAt(xl float64) int {
	a, b := 0, len(o.xl)
	for a < b {
		m := int(uint(a+b) >> 1)
		if o.xl[m] > xl {
			b = m
		} else {
			a = m + 1
		}
	}
	return a
}

// added records that entry len(entries)-1 was appended.
func (o *siblingOrder) added(entries []Entry) {
	i := len(entries) - 1
	r := entries[i].Rect
	if math.IsNaN(r.XL) || math.IsNaN(r.XU) {
		o.valid = false
		return
	}
	k := o.insertAt(r.XL)
	o.perm = slices.Insert(o.perm, k, int32(i))
	o.xl = slices.Insert(o.xl, k, r.XL)
	o.maxXU = append(o.maxXU, 0)
	o.runningMax(entries, k)
}

// moved records that entry i's rectangle changed from one starting at oldXL
// to entries[i].Rect.
func (o *siblingOrder) moved(entries []Entry, i int, oldXL float64) {
	r := entries[i].Rect
	if math.IsNaN(r.XL) || math.IsNaN(r.XU) {
		o.valid = false
		return
	}
	// Find i among the entries that started at oldXL.
	k := o.insertAt(oldXL) - 1
	for k >= 0 && o.perm[k] != int32(i) {
		k--
	}
	// Take it out, then put it back where its new XL goes.
	o.perm = slices.Delete(o.perm, k, k+1)
	o.xl = slices.Delete(o.xl, k, k+1)
	at := o.insertAt(r.XL)
	o.perm = slices.Insert(o.perm, at, int32(i))
	o.xl = slices.Insert(o.xl, at, r.XL)
	o.runningMax(entries, min(k, at))
}

// newSiblingOrder returns an empty, stale order with room for c entries.
func newSiblingOrder(c int) *siblingOrder {
	keys := make([]float64, 2*c)
	return &siblingOrder{perm: make([]int32, 0, c), xl: keys[:0:c], maxXU: keys[c : c : 2*c]}
}

// clone returns a copy, with room for c entries, for a copy-on-write copy of
// the node, or nil if there is no valid order to carry.
func (o *siblingOrder) clone(c int) *siblingOrder {
	if o == nil || !o.valid {
		return nil
	}
	d := newSiblingOrder(max(c, len(o.perm)))
	d.perm = append(d.perm, o.perm...)
	d.xl = append(d.xl, o.xl...)
	d.maxXU = append(d.maxXU, o.maxXU...)
	d.valid = true
	return d
}
