package rtree

import "repro/internal/geom"

// Delete removes one data entry with exactly the given rectangle and object
// identifier.  It reports whether such an entry was found.  Underflowing
// nodes are dissolved and their entries re-inserted (Guttman's CondenseTree),
// and the tree height shrinks when the root is left with a single child.
func (t *Tree) Delete(rect geom.Rect, data int32) bool {
	a := &t.build
	a.orphans = a.orphans[:0]
	found := t.deleteRec(t.ownRoot(), rect, data, &a.orphans)
	if !found {
		return false
	}
	t.size--
	t.muts++
	t.invalidateCatalog()

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
		t.maintRemoveNode(t.root)
		t.maintEntries(t.root.Level, -1)
		t.root = t.root.Entries[0].Child
		t.height--
	}
	return true
}

// deleteRec removes the entry from the subtree rooted at n.  Underflowing
// children are removed from n and their entries appended to orphans.
func (t *Tree) deleteRec(n *Node, rect geom.Rect, data int32, orphans *[]pendingEntry) bool {
	if n.IsLeaf() {
		for i, e := range n.Entries {
			if e.Data == data && e.Rect.Equal(rect) {
				n.setEntries(append(n.Entries[:i], n.Entries[i+1:]...))
				t.maintEntries(n.Level, -1)
				// Deletes never split, so without this the reservoir would
				// keep describing the removed geometry indefinitely.
				t.maintResample(n)
				return true
			}
		}
		return false
	}
	for i := range n.Entries {
		if !n.Entries[i].Rect.Intersects(rect) {
			continue
		}
		// Own the child before descending: the recursion mutates it when it
		// finds the entry.  A child searched but not containing the entry is
		// copied spuriously — same identifier, same bytes, so the incremental
		// store commit still diffs it clean.
		child := t.ownChild(n, i)
		if !t.deleteRec(child, rect, data, orphans) {
			continue
		}
		if len(child.Entries) < t.minEnt && n != nil {
			// Dissolve the underflowing child: remove its directory entry and
			// queue its remaining entries for re-insertion at the child's
			// level.
			for _, ce := range child.Entries {
				*orphans = append(*orphans, pendingEntry{entry: ce, level: child.Level})
			}
			t.maintRemoveNode(child)
			t.maintEntries(child.Level, -len(child.Entries))
			n.setEntries(append(n.Entries[:i], n.Entries[i+1:]...))
			t.maintEntries(n.Level, -1)
		} else {
			n.setRect(i, child.MBR())
		}
		return true
	}
	return false
}
