package rtree

import (
	"repro/internal/buffer"
	"repro/internal/geom"
)

// AccessNode charges one read of the node to the tracker (path buffer, LRU
// buffer or disk) and reports whether a buffer satisfied it; false is a
// counted disk read.  A nil tracker is a no-op that reads nothing (true), so
// query code can be written once for tracked and untracked execution.
func (t *Tree) AccessNode(tr *buffer.Tracker, n *Node) bool {
	if tr == nil {
		return true
	}
	return tr.Access(t.id, n.Level, n.ID)
}

// Search reports every data entry whose rectangle intersects query to fn.
// Returning false from fn stops the search early.  This is the window query
// of section 2 (filter step only: it operates on MBRs).
func (t *Tree) Search(query geom.Rect, fn func(Entry) bool) {
	t.SearchTracked(query, nil, fn)
}

// SearchTracked is Search with I/O accounting: every node visited is charged
// to the tracker, and the intersection tests are charged to the tracker's
// metrics collector as join-condition comparisons.  A nil tracker disables
// all accounting.
func (t *Tree) SearchTracked(query geom.Rect, tr *buffer.Tracker, fn func(Entry) bool) {
	t.AccessNode(tr, t.root)
	t.searchNode(t.root, query, tr, fn)
}

func (t *Tree) searchNode(n *Node, query geom.Rect, tr *buffer.Tracker, fn func(Entry) bool) bool {
	counter := trackerCounter(tr)
	for i := range n.Entries {
		e := n.Entries[i]
		if !geom.IntersectsCounted(e.Rect, query, counter) {
			continue
		}
		if n.IsLeaf() {
			if !fn(e) {
				return false
			}
			continue
		}
		t.AccessNode(tr, e.Child)
		if !t.searchNode(e.Child, query, tr, fn) {
			return false
		}
	}
	return true
}

// SearchSubtree runs a window query restricted to the subtree rooted at n.
// The spatial join of trees with different heights uses it to evaluate the
// data rectangles of the taller tree against a subtree of the shorter one
// (section 4.4, policy (a)).
func (t *Tree) SearchSubtree(n *Node, query geom.Rect, tr *buffer.Tracker, fn func(Entry) bool) {
	t.searchNode(n, query, tr, fn)
}

// BatchScratch holds the per-depth active query sets of a batched subtree
// search.  The buffers grow to the working-set size on first use; a reused
// scratch makes BatchSearchSubtreeScratch allocation-free in steady state.
// A BatchScratch must not be shared between concurrent searches.
type BatchScratch struct {
	active [][]int32
}

// level returns the active-set buffer for one recursion depth, truncated for
// reuse.
func (s *BatchScratch) level(depth int) []int32 {
	for len(s.active) <= depth {
		s.active = append(s.active, nil)
	}
	return s.active[depth][:0]
}

// BatchSearchSubtreeScratch evaluates several window queries against the
// subtree rooted at n in a single traversal: a child is descended into at
// most once even if multiple query rectangles intersect it.  This implements
// policy (b) of section 4.4, which guarantees that each page of the subtree
// is read only once.  fn receives the index of the matching query rectangle
// and the data entry.  The caller's scratch holds the active query sets, so
// tight loops (the height-difference join runs one batch search per
// directory entry) reuse them instead of allocating them per node visited.
func (t *Tree) BatchSearchSubtreeScratch(n *Node, queries []geom.Rect, tr *buffer.Tracker, s *BatchScratch, fn func(q int, e Entry)) {
	if len(queries) == 0 {
		return
	}
	root := s.level(0)
	for i := range queries {
		root = append(root, int32(i))
	}
	s.active[0] = root
	t.batchSearch(n, queries, root, 1, s, tr, fn)
}

// batchSearch visits the subtree once, narrowing the set of active query
// rectangles as it descends.  Active sets live in the scratch, one buffer per
// depth: a depth's buffer is rebuilt for each sibling only after the descent
// through the previous sibling has finished with it.
func (t *Tree) batchSearch(n *Node, queries []geom.Rect, active []int32, depth int, s *BatchScratch, tr *buffer.Tracker, fn func(q int, e Entry)) {
	counter := trackerCounter(tr)
	for i := range n.Entries {
		e := n.Entries[i]
		if n.IsLeaf() {
			for _, q := range active {
				if geom.IntersectsCounted(e.Rect, queries[q], counter) {
					fn(int(q), e)
				}
			}
			continue
		}
		childActive := s.level(depth)
		for _, q := range active {
			if geom.IntersectsCounted(e.Rect, queries[q], counter) {
				childActive = append(childActive, q)
			}
		}
		s.active[depth] = childActive
		if len(childActive) == 0 {
			continue
		}
		t.AccessNode(tr, e.Child)
		t.batchSearch(e.Child, queries, childActive, depth+1, s, tr, fn)
	}
}

// SearchPoint reports every data entry whose rectangle contains the point p.
func (t *Tree) SearchPoint(p geom.Point, fn func(Entry) bool) {
	t.Search(p.Rect(), fn)
}

// All reports every data entry of the tree to fn.  Returning false stops the
// enumeration.
func (t *Tree) All(fn func(Entry) bool) {
	t.all(t.root, fn)
}

func (t *Tree) all(n *Node, fn func(Entry) bool) bool {
	for _, e := range n.Entries {
		if n.IsLeaf() {
			if !fn(e) {
				return false
			}
			continue
		}
		if !t.all(e.Child, fn) {
			return false
		}
	}
	return true
}

// Items returns all data entries of the tree as items, in traversal order.
func (t *Tree) Items() []Item {
	items := make([]Item, 0, t.size)
	t.All(func(e Entry) bool {
		items = append(items, Item{Rect: e.Rect, Data: e.Data})
		return true
	})
	return items
}

// trackerCounter returns the comparison counter behind the tracker, or nil.
func trackerCounter(tr *buffer.Tracker) geom.ComparisonCounter {
	if tr == nil {
		return nil
	}
	if m := tr.Metrics(); m != nil {
		return m
	}
	return nil
}
