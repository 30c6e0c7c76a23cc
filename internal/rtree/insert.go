package rtree

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// Insert adds a data rectangle with the given object identifier to the tree.
// The rectangle must be well formed (geom.Rect.WellFormed); Insert does not
// check it, and a malformed entry makes later joins wrong until
// CheckInvariants reports it as ErrMalformedEntry.
func (t *Tree) Insert(rect geom.Rect, data int32) {
	t.size++
	t.muts++
	t.build.begin()
	t.insertEntry(Entry{Rect: rect, Data: data}, 0)
	// Forced re-insertion may have queued entries; process them until the
	// queue drains.  Entries queued while draining reuse the same "one
	// re-insertion per level per insert" bookkeeping, as in the R*-tree paper.
	for {
		p, ok := t.build.popPending()
		if !ok {
			break
		}
		t.insertEntry(p.entry, p.level)
	}
}

// InsertItems inserts all items in order.
func (t *Tree) InsertItems(items []Item) {
	for _, it := range items {
		t.Insert(it.Rect, it.Data)
	}
}

// insertEntry inserts e at the given level (0 for data entries), growing the
// tree if the root splits.
func (t *Tree) insertEntry(e Entry, level int) {
	root := t.ownRoot()
	if level > root.Level {
		// Can only happen if the tree shrank while re-insertions were queued;
		// with level == root level the entry joins the root directly.
		level = root.Level
	}
	split, ok := t.insertRec(root, e, level)
	if !ok {
		return
	}
	// The root was split: grow the tree by one level.
	oldRoot := t.root
	newRoot := t.newNode(oldRoot.Level + 1)
	newRoot.setEntries(append(make([]Entry, 0, t.maxEnt+1),
		Entry{Rect: oldRoot.MBR(), Child: oldRoot},
		split,
	))
	t.root = newRoot
	t.height++
}

// insertRec descends from n to the target level, inserts the entry and
// resolves overflows bottom-up.  It returns a directory entry for a newly
// created sibling (and true) if n itself was split.
//
// The entry for the child it descended into grows by union when nothing left
// the child's subtree (no split of the child, no forced re-insertion below
// it): a directory rectangle equals its child's MBR (CheckInvariants holds
// it to that), the child now covers what it covered plus e, and Go's min and
// max fold to the same bits in any order, signed zeros included.  Equal
// values have equal bits except for a zero, which may carry either sign
// (the insertion buffer's leaf hint appends a -0 corner inside a +0 one
// without touching the ancestors), or NaN; a rectangle with such a corner
// is recomputed as the child's MBR, as is the entry of a child that lost
// entries.
func (t *Tree) insertRec(n *Node, e Entry, level int) (Entry, bool) {
	if n.Level == level {
		n.appendEntry(e)
		if n.Level == 0 {
			// Remember the leaf that received the entry: the insertion
			// buffer seeds its next descent from it (see insertbuf.go).
			t.build.lastLeaf = n
		}
	} else {
		idx := t.chooseSubtree(n, e.Rect)
		child := t.ownChild(n, idx)
		removals := t.build.removals
		split, ok := t.insertRec(child, e, level)
		if old := n.Entries[idx].Rect; ok || t.build.removals != removals || !nonzeroCorners(old) {
			n.setRect(idx, child.MBR())
		} else {
			n.setRect(idx, old.Union(e.Rect))
		}
		if ok {
			n.appendEntry(split)
		}
	}
	if len(n.Entries) > t.maxEnt {
		return t.overflow(n)
	}
	return Entry{}, false
}

// nonzeroCorners reports whether every corner of r is a number other than
// zero, whose value fixes its bits.
func nonzeroCorners(r geom.Rect) bool {
	return (r.XL < 0 || r.XL > 0) && (r.YL < 0 || r.YL > 0) && (r.XU < 0 || r.XU > 0) && (r.YU < 0 || r.YU > 0)
}

// chooseSubtree returns the index of the entry of n whose subtree the new
// rectangle should be inserted into.
func (t *Tree) chooseSubtree(n *Node, r geom.Rect) int {
	if n.Level > 1 {
		// Directory levels above the leaves: least area enlargement, ties
		// broken by smallest area (Guttman's ChooseLeaf criterion).
		return leastEnlargement(n.Entries, r)
	}
	// R*-tree, children are leaves: minimise overlap enlargement.  For large
	// capacities only the chooseSubtreeCandidates entries with the least area
	// enlargement are examined (the R*-tree paper's optimisation).
	o := t.siblings(n)
	candidates := t.candidateIndexes(n.Entries, o, r)
	if len(candidates) == 1 {
		return candidates[0]
	}
	best := candidates[0]
	bestOverlap := t.overlapEnlargement(n.Entries, o, best, r, math.Inf(1))
	bestEnlarge := n.Entries[best].Rect.Enlargement(r)
	bestArea := n.Entries[best].Rect.Area()
	for _, i := range candidates[1:] {
		if math.IsNaN(bestOverlap) {
			// No overlap enlargement compares below or equal to NaN.
			break
		}
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if bestOverlap == 0 && !(enl < bestEnlarge || (enl == bestEnlarge && area < bestArea)) {
			// Every term of an overlap enlargement is at least +0 (or NaN,
			// which loses every comparison), so only the tie-breakers could
			// beat a zero one, and this candidate loses on them: its scan
			// could not change the choice.
			continue
		}
		o := t.overlapEnlargement(n.Entries, o, i, r, bestOverlap)
		if o < bestOverlap ||
			(o == bestOverlap && enl < bestEnlarge) ||
			(o == bestOverlap && enl == bestEnlarge && area < bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = i, o, enl, area
		}
	}
	return best
}

// leastEnlargement returns the index of the entry needing the least area
// enlargement to include r, ties broken by smallest area.
func leastEnlargement(entries []Entry, r geom.Rect) int {
	best := 0
	bestEnlarge := entries[0].Rect.Enlargement(r)
	bestArea := entries[0].Rect.Area()
	for i := 1; i < len(entries); i++ {
		enl := entries[i].Rect.Enlargement(r)
		area := entries[i].Rect.Area()
		if enl < bestEnlarge || (enl == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, enl, area
		}
	}
	return best
}

// candidateIndexes returns the indexes of the entries to examine for the
// overlap-minimising ChooseSubtree: all of them for small nodes, otherwise
// the chooseSubtreeCandidates entries with the least area enlargement.  The
// index buffer and the sort's records live in the build arena.
//
// A large node whose least enlargement belongs to one entry alone, with a
// zero overlap enlargement, yields that entry as the only candidate, unsorted:
// the sort would put it first, and no later candidate can beat a zero
// overlap enlargement with a larger area enlargement (see chooseSubtree).
// When the least enlargements are distinct, an insertion selection finds
// them without the sort (leastDistinct).
func (t *Tree) candidateIndexes(entries []Entry, o *siblingOrder, r geom.Rect) []int {
	a := &t.build
	idx := a.candIdx[:0]
	if len(entries) <= chooseSubtreeCandidates {
		for i := range entries {
			idx = append(idx, i)
		}
		a.candIdx = idx
		return idx
	}
	recs := a.keys[:0]
	least, sole, nan := 0, true, false
	for i := range entries {
		e := entries[i].Rect.Enlargement(r)
		recs = append(recs, keyed{key: e, idx: int32(i)})
		nan = nan || math.IsNaN(e) // NaN keys leave the sorted order undefined
		if e < recs[least].key {
			least, sole = i, true
		} else if i > 0 && e == recs[least].key {
			sole = false
		}
	}
	a.keys = recs
	if sole && !nan && t.overlapEnlargement(entries, o, least, r, 0) == 0 {
		a.candIdx = append(idx, least)
		return a.candIdx
	}
	var top []keyed
	distinct := false
	if !nan {
		if a.top == nil {
			a.top = make([]keyed, 0, chooseSubtreeCandidates)
		}
		top, distinct = leastDistinct(recs, chooseSubtreeCandidates, a.top[:0])
	}
	if !distinct {
		slices.SortFunc(recs, ascending)
		top = recs[:chooseSubtreeCandidates]
	}
	for _, k := range top {
		idx = append(idx, int(k.idx))
	}
	a.candIdx = idx
	return idx
}

// leastDistinct appends to top the k records of recs with the least keys, in
// ascending order of key, by insertion, and reports whether those keys are
// distinct and below every key left out.  Then every sort of recs puts just
// these records, in this order, first, so they are the candidates the
// pdqsort would have chosen, without its comparisons through a function
// value; otherwise (ties, which are common at an enlargement of 0) the
// caller sorts.  recs must hold more than k records, none with a NaN key.
func leastDistinct(recs []keyed, k int, top []keyed) ([]keyed, bool) {
	out := math.Inf(1) // the least key left out
	for _, r := range recs {
		if len(top) == k {
			last := top[k-1].key
			if !(r.key < last) {
				out = min(out, r.key)
				continue
			}
			out = min(out, last)
			top = top[:k-1]
		}
		j := len(top)
		top = append(top, r)
		for ; j > 0 && top[j-1].key > r.key; j-- {
			top[j] = top[j-1]
		}
		top[j] = r
	}
	for j := 1; j < len(top); j++ {
		if !(top[j-1].key < top[j].key) {
			return top, false
		}
	}
	return top, top[len(top)-1].key < out
}

// overlapEnlargement returns the increase of the overlap between entry i and
// its siblings if entry i's rectangle is enlarged to include r: the sum, in
// sibling order, of area(E ∩ Rj) − area(Ri ∩ Rj) with E = Ri ∪ r.
//
// It measures only the overlaps that exist, and returns the bits the full
// sum does.  Ri lies inside E, so each extent of Ri ∩ Rj is at most the
// matching extent of E ∩ Rj (rounding is monotonic): a sibling E does not
// overlap with positive area contributes 0 − 0 = +0, and adding +0 leaves
// the running sum unchanged (no term is ever −0).  When Ri already contains
// r, E is Ri and every term is a − a = +0, so the sum is +0 without a scan;
// a is finite because it is at most area(Ri), which the guard checks is
// finite (siblings with a NaN coordinate, which CheckInvariants rejects,
// are the one input this shortcut does not reproduce).
//
// A sibling strictly beside E on either axis has an intersection extent
// below zero, hence area 0, so an interval test rejects it before the area
// is computed; a NaN coordinate fails the test's comparisons and is measured
// as before.  With the node's sibling order o (nil: none, as for a node
// with a NaN x-corner) only the window of siblings whose x-interval can
// meet E's is tested at all.  The terms found are added in sibling order,
// so the sum keeps its bits.
//
// The scan stops early, returning a value above bound, once a term exceeds
// bound: adding a term of at least +0 never lowers a rounded sum, so the
// sum is at least each of its terms (or NaN).  A candidate whose overlap enlargement exceeds the best one so far
// loses to it whatever the exact value, so chooseSubtree passes that best
// one; +Inf asks for the sum itself.
func (t *Tree) overlapEnlargement(entries []Entry, o *siblingOrder, i int, r geom.Rect, bound float64) float64 {
	ri := entries[i].Rect
	if ri.Contains(r) && ri.Area() <= math.MaxFloat64 {
		return 0
	}
	e := ri.Union(r)
	a := &t.build
	if len(a.terms) < len(entries) {
		c := max(len(entries), t.maxEnt+1)
		a.terms = make([]float64, c)
		a.hits = make([]uint64, (c+63)/64)
	}
	lo, hi := 0, len(entries)
	var perm []int32
	if o != nil && !math.IsNaN(e.XL) && !math.IsNaN(e.XU) {
		lo, hi = o.window(e.XL, e.XU)
		perm = o.perm
	}
	for k := lo; k < hi; k++ {
		j := k
		if perm != nil {
			j = int(perm[k])
		}
		rj := &entries[j].Rect
		if j == i || rj.XL > e.XU || rj.XU < e.XL || rj.YL > e.YU || rj.YU < e.YL {
			continue
		}
		grown := e.IntersectionArea(*rj)
		if grown == 0 {
			continue
		}
		term := grown - ri.IntersectionArea(*rj)
		if term > bound {
			clear(a.hits)
			return term
		}
		a.terms[j] = term
		a.hits[j>>6] |= 1 << (j & 63)
	}
	var delta float64
	for w, word := range a.hits {
		for ; word != 0; word &= word - 1 {
			delta += a.terms[w<<6|bits.TrailingZeros64(word)]
		}
		a.hits[w] = 0
	}
	return delta
}

// overflow resolves a node that exceeds the capacity M: the R*-tree removes a
// fraction of the entries for re-insertion the first time a level overflows
// during one insertion, otherwise (and always for the root) the node is
// split.
func (t *Tree) overflow(n *Node) (Entry, bool) {
	if n != t.root && !t.build.wasReinserted(n.Level) {
		t.build.markReinserted(n.Level)
		if t.forcedReinsert(n) {
			return Entry{}, false
		}
	}
	return t.splitNode(n), true
}

// forcedReinsert removes the DefaultReinsertFraction of the node's entries
// whose rectangle centres are farthest from the centre of the node's MBR and
// queues them for re-insertion at the node's level ("close reinsert": the
// removed entries are re-inserted starting with the one closest to the
// centre).
// It reports whether any entries were removed; if not, the caller must split.
func (t *Tree) forcedReinsert(n *Node) bool {
	p := int(float64(len(n.Entries)) * DefaultReinsertFraction)
	if p < 1 {
		p = 1
	}
	if p > len(n.Entries)-t.minEnt {
		p = len(n.Entries) - t.minEnt
	}
	if p < 1 {
		// Cannot remove anything without underflowing the node; the caller
		// falls back to a split.  This only happens for tiny capacities.
		return false
	}
	a := &t.build
	center := n.MBR().Center()
	dists := a.keys[:0]
	for i := range n.Entries {
		dists = append(dists, keyed{key: n.Entries[i].Rect.Center().Distance(center), idx: int32(i)})
	}
	a.keys = dists
	slices.SortFunc(dists, descending)

	// Close reinsert: queue the removed entries ordered by increasing
	// distance from the centre.
	for k := p - 1; k >= 0; k-- {
		a.pushPending(n.Entries[dists[k].idx], n.Level)
	}
	a.entries = append(a.entries[:0], n.Entries...)
	kept := n.Entries[:0]
	for _, d := range dists[p:] {
		kept = append(kept, a.entries[d.idx])
	}
	n.setEntries(kept)
	a.removals++
	return true
}
