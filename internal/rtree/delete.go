package rtree

import "repro/internal/geom"

// Delete removes one data entry with exactly the given rectangle and object
// identifier.  It reports whether such an entry was found.  Underflowing
// nodes are dissolved and their entries re-inserted (Guttman's CondenseTree),
// and the tree height shrinks when the root is left with a single child.
//
// The search is read-only: only the nodes on the path to the found entry are
// taken over from a snapshot (copied), so every node the search merely looked
// into stays shared, keeping its cached xl-order, and a delete that finds
// nothing copies nothing.
func (t *Tree) Delete(rect geom.Rect, data int32) bool {
	a := &t.build
	path, found := findEntry(t.root, rect, data, a.path[:0])
	a.path = path
	if !found {
		return false
	}
	a.orphans = a.orphans[:0]
	t.removeAt(t.ownRoot(), path, &a.orphans)
	t.size--
	t.muts++

	// Re-insert entries of dissolved nodes at their original level.  One
	// "already re-inserted per level" record is shared across the whole
	// delete so that forced re-insertion cannot ping-pong entries between two
	// overflowing nodes indefinitely.
	a.begin()
	for i := 0; i < len(a.orphans); i++ {
		t.insertEntry(a.orphans[i].entry, a.orphans[i].level)
		for {
			p, ok := a.popPending()
			if !ok {
				break
			}
			t.insertEntry(p.entry, p.level)
		}
	}
	a.orphans = a.orphans[:0]

	// Shrink the tree while the root is a directory node with one child.
	for !t.root.IsLeaf() && len(t.root.Entries) == 1 {
		t.root = t.root.Entries[0].Child
		t.height--
	}
	return true
}

// findEntry searches the subtree rooted at n, without changing anything, for
// the first data entry in depth-first entry order with exactly the given
// rectangle and object identifier.  If it finds one it returns path extended
// by the entry index taken at every level below n, the index inside the leaf
// last.
func findEntry(n *Node, rect geom.Rect, data int32, path []int) ([]int, bool) {
	if n.IsLeaf() {
		for i, e := range n.Entries {
			if e.Data == data && e.Rect.Equal(rect) {
				return append(path, i), true
			}
		}
		return path, false
	}
	for i := range n.Entries {
		if !n.Entries[i].Rect.Intersects(rect) {
			continue
		}
		if found, ok := findEntry(n.Entries[i].Child, rect, data, append(path, i)); ok {
			return found, true
		}
	}
	return path, false
}

// removeAt removes the entry path leads to from the subtree rooted at n,
// which the caller owns, taking over each node on the path before changing
// it.  Underflowing children are removed from n and their entries appended to
// orphans.
func (t *Tree) removeAt(n *Node, path []int, orphans *[]pendingEntry) {
	i := path[0]
	if n.IsLeaf() {
		n.setEntries(append(n.Entries[:i], n.Entries[i+1:]...))
		return
	}
	child := t.ownChild(n, i)
	t.removeAt(child, path[1:], orphans)
	if len(child.Entries) < t.minEnt {
		// Dissolve the underflowing child: remove its directory entry and
		// queue its remaining entries for re-insertion at the child's level.
		for _, ce := range child.Entries {
			*orphans = append(*orphans, pendingEntry{entry: ce, level: child.Level})
		}
		n.setEntries(append(n.Entries[:i], n.Entries[i+1:]...))
	} else {
		n.setRect(i, child.MBR())
	}
}
