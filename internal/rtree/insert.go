package rtree

import (
	"math"
	"sort"

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
func (t *Tree) insertRec(n *Node, e Entry, level int) (Entry, bool) {
	if n.Level == level {
		n.setEntries(append(n.Entries, e))
		if n.Level == 0 {
			// Remember the leaf that received the entry: the insertion
			// buffer seeds its next descent from it (see insertbuf.go).
			t.build.lastLeaf = n
		}
	} else {
		idx := t.chooseSubtree(n, e.Rect)
		child := t.ownChild(n, idx)
		split, ok := t.insertRec(child, e, level)
		n.setRect(idx, child.MBR())
		if ok {
			n.setEntries(append(n.Entries, split))
		}
	}
	if len(n.Entries) > t.maxEnt {
		return t.overflow(n)
	}
	return Entry{}, false
}

// chooseSubtree returns the index of the entry of n whose subtree the new
// rectangle should be inserted into.
func (t *Tree) chooseSubtree(n *Node, r geom.Rect) int {
	if t.opts.Variant == Quadratic || n.Level > 1 {
		// Guttman's ChooseLeaf criterion, also used by the R*-tree for
		// directory levels above the leaves: least area enlargement, ties
		// broken by smallest area.
		return leastEnlargement(n.Entries, r)
	}
	// R*-tree, children are leaves: minimise overlap enlargement.  For large
	// capacities only the chooseSubtreeCandidates entries with the least area
	// enlargement are examined (the R*-tree paper's optimisation).
	candidates := t.candidateIndexes(n.Entries, r)
	if len(candidates) == 1 {
		return candidates[0]
	}
	best := candidates[0]
	bestOverlap := overlapEnlargement(n.Entries, best, r)
	bestEnlarge := n.Entries[best].Rect.Enlargement(r)
	bestArea := n.Entries[best].Rect.Area()
	for _, i := range candidates[1:] {
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if bestOverlap == 0 && !(enl < bestEnlarge || (enl == bestEnlarge && area < bestArea)) {
			// Every term of an overlap enlargement is at least +0 (or NaN,
			// which loses every comparison), so only the tie-breakers could
			// beat a zero one, and this candidate loses on them: its scan
			// could not change the choice.
			continue
		}
		o := overlapEnlargement(n.Entries, i, r)
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
// index and enlargement buffers live in the build arena.
//
// A large node whose least enlargement belongs to one entry alone, with a
// zero overlap enlargement, yields that entry as the only candidate, unsorted:
// the sort would put it first, and no later candidate can beat a zero
// overlap enlargement with a larger area enlargement (see chooseSubtree).
func (t *Tree) candidateIndexes(entries []Entry, r geom.Rect) []int {
	a := &t.build
	idx := a.candIdx[:0]
	for i := range entries {
		idx = append(idx, i)
	}
	a.candIdx = idx
	if len(entries) <= chooseSubtreeCandidates {
		return idx
	}
	enl := a.candEnl[:0]
	least, sole, nan := 0, true, false
	for i := range entries {
		e := entries[i].Rect.Enlargement(r)
		enl = append(enl, e)
		nan = nan || math.IsNaN(e) // NaN keys leave the sorted order undefined
		if e < enl[least] {
			least, sole = i, true
		} else if i > 0 && e == enl[least] {
			sole = false
		}
	}
	a.candEnl = enl
	if sole && !nan && overlapEnlargement(entries, least, r) == 0 {
		return idx[least : least+1]
	}
	a.candSorter.idx, a.candSorter.enl = idx, enl
	sort.Sort(&a.candSorter)
	a.candSorter.idx, a.candSorter.enl = nil, nil
	return idx[:chooseSubtreeCandidates]
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
func overlapEnlargement(entries []Entry, i int, r geom.Rect) float64 {
	ri := entries[i].Rect
	if ri.Contains(r) && ri.Area() <= math.MaxFloat64 {
		return 0
	}
	enlarged := ri.Union(r)
	var delta float64
	for j := range entries {
		if j == i {
			continue
		}
		grown := enlarged.IntersectionArea(entries[j].Rect)
		if grown == 0 {
			continue
		}
		delta += grown - ri.IntersectionArea(entries[j].Rect)
	}
	return delta
}

// overflow resolves a node that exceeds the capacity M: the R*-tree removes a
// fraction of the entries for re-insertion the first time a level overflows
// during one insertion, otherwise (and always for the root and the Quadratic
// variant) the node is split.
func (t *Tree) overflow(n *Node) (Entry, bool) {
	if t.opts.Variant == RStar && n != t.root && !t.build.wasReinserted(n.Level) && t.opts.ReinsertFraction > 0 {
		t.build.markReinserted(n.Level)
		if t.forcedReinsert(n) {
			return Entry{}, false
		}
	}
	return t.splitNode(n), true
}

// forcedReinsert removes the ReinsertFraction of the node's entries whose
// rectangle centres are farthest from the centre of the node's MBR and queues
// them for re-insertion at the node's level ("close reinsert": the removed
// entries are re-inserted starting with the one closest to the centre).
// It reports whether any entries were removed; if not, the caller must split.
func (t *Tree) forcedReinsert(n *Node) bool {
	p := int(float64(len(n.Entries)) * t.opts.ReinsertFraction)
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
	dists := a.dists[:0]
	for _, e := range n.Entries {
		dists = append(dists, distEntry{dist: e.Rect.Center().Distance(center), e: e})
	}
	a.dists = dists
	a.distSorter.d = dists
	sort.Sort(&a.distSorter)
	a.distSorter.d = nil

	removed := dists[:p]
	kept := n.Entries[:0]
	for _, d := range dists[p:] {
		kept = append(kept, d.e)
	}
	n.setEntries(kept)
	// Close reinsert: queue the removed entries ordered by increasing
	// distance from the centre.
	for i := len(removed) - 1; i >= 0; i-- {
		a.pushPending(removed[i].e, n.Level)
	}
	return true
}
