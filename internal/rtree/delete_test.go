package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// sameNodeBytes reports whether two versions of one node would encode to the
// same page: same level, and entry by entry the same rectangle and the same
// object or child page identifier.
func sameNodeBytes(a, b *Node) bool {
	if a.Level != b.Level || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i, e := range a.Entries {
		f := b.Entries[i]
		if !e.Rect.Equal(f.Rect) || e.Data != f.Data || (e.Child == nil) != (f.Child == nil) {
			return false
		}
		if e.Child != nil && e.Child.ID != f.Child.ID {
			return false
		}
	}
	return true
}

// TestDeleteCopiesOnlyThePath pins that a delete round on a snapshotted store
// takes over (copies) only the nodes whose bytes it changes.  The search
// looks into every child whose rectangle meets the deleted one; those it
// merely searched must stay shared with the snapshot, so the commit writes
// exactly the nodes that are not shared and the next epoch's joins keep
// their cached xl-orders.  The tree itself must be the one a snapshot-free
// twin builds from the same operations.
func TestDeleteCopiesOnlyThePath(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	items := randomItems(rng, 20000, 0.004)
	opts := Options{PageSize: storage.PageSize4K}
	tree, twin := MustNew(opts), MustNew(opts)
	tree.InsertItemsBuffered(items)
	twin.InsertItemsBuffered(items)
	store, err := NewTreeStore(tree, memPager(t, storage.PageSize4K))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := tree.Snapshot()
	byID := map[storage.PageID]*Node{}
	snap.Walk(func(n *Node) { byID[n.ID] = n })

	// A delete that finds nothing copies nothing.
	if tree.Delete(items[0].Rect, -1) {
		t.Fatal("deleted an entry that was never inserted")
	}
	if tree.Root() != snap.Root() {
		t.Fatal("a delete that found nothing copied the root")
	}

	// One delete-only round through the server's insert buffer, on both trees.
	victims := rng.Perm(len(items))[:100]
	for _, tr := range []*Tree{tree, twin} {
		b := NewInsertBuffer(tr, 256)
		for _, k := range victims {
			b.StageDelete(items[k].Rect, items[k].Data)
		}
		b.Flush()
		if b.DeletesApplied() != len(victims) {
			t.Fatalf("applied %d of %d deletes", b.DeletesApplied(), len(victims))
		}
	}
	if got, want := fingerprint(tree), fingerprint(twin); !got.equal(want) {
		t.Fatalf("snapshotted tree differs from its snapshot-free twin:\n got  %v\n want %v", got, want)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	private, searchedShared := 0, 0
	tree.Walk(func(n *Node) {
		old, existed := byID[n.ID]
		switch {
		case old == n:
			if !n.IsLeaf() {
				return
			}
			// A shared leaf some victim's search looked into.
			mbr := n.MBR()
			for _, k := range victims {
				if mbr.Intersects(items[k].Rect) {
					searchedShared++
					return
				}
			}
		case existed && sameNodeBytes(old, n):
			t.Errorf("node %d (level %d) was copied but its bytes did not change", n.ID, n.Level)
		default:
			private++
		}
	})
	if searchedShared == 0 {
		t.Fatal("no victim's search met a leaf it did not change: the round does not exercise the search")
	}
	st, err := store.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesWritten != private {
		t.Fatalf("commit wrote %d pages, want the %d nodes the round took over or created", st.PagesWritten, private)
	}
}
