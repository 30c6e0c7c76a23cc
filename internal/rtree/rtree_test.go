package rtree

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// smallOpts returns options with a small capacity so that structural code
// paths (splits, re-insertion, shrinking) are exercised with few entries.
func smallOpts() Options {
	return Options{PageSize: 8 * storage.EntrySize}
}

func randomItems(rng *rand.Rand, n int, maxSide float64) []Item {
	items := make([]Item, n)
	for i := range items {
		x := rng.Float64()
		y := rng.Float64()
		items[i] = Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*maxSide, YU: y + rng.Float64()*maxSide},
			Data: int32(i),
		}
	}
	return items
}

func TestNewDefaultsAndAccessors(t *testing.T) {
	tr := MustNew(Options{})
	if tr.PageSize() != storage.PageSize4K {
		t.Errorf("default page size = %d", tr.PageSize())
	}
	if tr.MaxEntries() != 204 {
		t.Errorf("M = %d, want 204", tr.MaxEntries())
	}
	if tr.MinEntries() != 81 {
		t.Errorf("m = %d, want 81", tr.MinEntries())
	}
	if tr.Height() != 1 || tr.Len() != 0 {
		t.Errorf("empty tree height=%d len=%d", tr.Height(), tr.Len())
	}
	if _, ok := tr.Bounds(); ok {
		t.Error("empty tree must have no bounds")
	}
	if tr.ID() == MustNew(Options{}).ID() {
		t.Error("tree ids must be unique")
	}
	if tr.String() == "" {
		t.Error("String must not be empty")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Options{PageSize: 32}); err == nil {
		t.Error("expected error for page too small")
	}
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := MustNew(smallOpts())
	items := randomItems(rand.New(rand.NewSource(1)), 500, 0.02)
	tr.InsertItems(items)

	if tr.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(items))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	if tr.Height() < 2 {
		t.Fatalf("expected the tree to have grown, height=%d", tr.Height())
	}

	// Every stored rectangle must be found by a window query with itself.
	for _, it := range items[:50] {
		found := false
		tr.Search(it.Rect, func(e Entry) bool {
			if e.Data == it.Data {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("item %d not found by window query", it.Data)
		}
	}
}

func TestWindowQueryMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 2000, 0.01)
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	tr.InsertItems(items)

	for q := 0; q < 25; q++ {
		query := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		want := make(map[int32]bool)
		for _, it := range items {
			if it.Rect.Intersects(query) {
				want[it.Data] = true
			}
		}
		got := make(map[int32]bool)
		tr.Search(query, func(e Entry) bool {
			got[e.Data] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %d: missing result %d", q, id)
			}
		}
	}
}

func TestSearchEarlyTermination(t *testing.T) {
	tr := MustNew(smallOpts())
	tr.InsertItems(randomItems(rand.New(rand.NewSource(3)), 200, 0.5))
	calls := 0
	tr.Search(geom.WorldRect(), func(Entry) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("early termination delivered %d results, want 5", calls)
	}
}

func TestSearchPointAndAllAndItems(t *testing.T) {
	tr := MustNew(smallOpts())
	items := []Item{
		{Rect: geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}, Data: 1},
		{Rect: geom.Rect{XL: 2, YL: 2, XU: 3, YU: 3}, Data: 2},
	}
	tr.InsertItems(items)
	var hits []int32
	tr.SearchPoint(geom.Point{X: 0.5, Y: 0.5}, func(e Entry) bool {
		hits = append(hits, e.Data)
		return true
	})
	if len(hits) != 1 || hits[0] != 1 {
		t.Fatalf("SearchPoint hits = %v", hits)
	}
	n := 0
	tr.All(func(Entry) bool { n++; return true })
	if n != 2 {
		t.Fatalf("All visited %d entries", n)
	}
	n = 0
	tr.All(func(Entry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("All early termination visited %d entries", n)
	}
	if got := tr.Items(); len(got) != 2 {
		t.Fatalf("Items returned %d items", len(got))
	}
	if b, ok := tr.Bounds(); !ok || !b.Contains(items[1].Rect) {
		t.Fatalf("Bounds = %v, %v", b, ok)
	}
}

func TestStatsMatchStructure(t *testing.T) {
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	items := randomItems(rand.New(rand.NewSource(4)), 5000, 0.01)
	tr.InsertItems(items)
	s := tr.Stats()
	if s.Height != tr.Height() {
		t.Errorf("stats height %d != tree height %d", s.Height, tr.Height())
	}
	if s.DataEntries != len(items) {
		t.Errorf("data entries = %d, want %d", s.DataEntries, len(items))
	}
	if s.DirEntries != s.DirPages+s.DataPages-1 {
		// Every page except the root is referenced by exactly one directory
		// entry.
		t.Errorf("dir entries = %d, pages = %d", s.DirEntries, s.TotalPages())
	}
	if s.Utilization < 0.5 || s.Utilization > 1.0 {
		t.Errorf("storage utilization %.2f outside a plausible range", s.Utilization)
	}
	if s.TotalPages() != s.DirPages+s.DataPages {
		t.Errorf("TotalPages inconsistent")
	}
}

func TestDelete(t *testing.T) {
	tr := MustNew(smallOpts())
	items := randomItems(rand.New(rand.NewSource(6)), 400, 0.02)
	tr.InsertItems(items)

	// Delete half of the items and verify they are gone and the rest remain.
	for _, it := range items[:200] {
		if !tr.Delete(it.Rect, it.Data) {
			t.Fatalf("Delete(%v, %d) = false", it.Rect, it.Data)
		}
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d, want 200", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after deletes: %v", err)
	}
	for _, it := range items[:200] {
		found := false
		tr.Search(it.Rect, func(e Entry) bool {
			if e.Data == it.Data {
				found = true
				return false
			}
			return true
		})
		if found {
			t.Fatalf("deleted item %d still found", it.Data)
		}
	}
	for _, it := range items[200:250] {
		found := false
		tr.Search(it.Rect, func(e Entry) bool {
			if e.Data == it.Data {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("surviving item %d not found", it.Data)
		}
	}
	// Deleting a non-existent entry returns false.
	if tr.Delete(geom.Rect{XL: 5, YL: 5, XU: 6, YU: 6}, 9999) {
		t.Fatal("Delete of non-existent entry returned true")
	}
	// Delete everything; the tree must shrink back to a single empty leaf.
	for _, it := range items[200:] {
		if !tr.Delete(it.Rect, it.Data) {
			t.Fatalf("Delete of %d failed", it.Data)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("after deleting everything: len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestDeleteReducesHeight(t *testing.T) {
	tr := MustNew(smallOpts())
	items := randomItems(rand.New(rand.NewSource(7)), 600, 0.02)
	tr.InsertItems(items)
	before := tr.Height()
	for _, it := range items[:550] {
		tr.Delete(it.Rect, it.Data)
	}
	if tr.Height() >= before {
		t.Fatalf("height did not shrink: before=%d after=%d", before, tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}

func TestInsertDeleteInterleavedProperty(t *testing.T) {
	// Random interleaving of inserts and deletes must keep the tree
	// consistent with a reference map at all times.
	rng := rand.New(rand.NewSource(8))
	tr := MustNew(smallOpts())
	reference := make(map[int32]geom.Rect)
	next := int32(0)
	for step := 0; step < 3000; step++ {
		if len(reference) == 0 || rng.Float64() < 0.6 {
			x, y := rng.Float64(), rng.Float64()
			r := geom.Rect{XL: x, YL: y, XU: x + 0.01, YU: y + 0.01}
			tr.Insert(r, next)
			reference[next] = r
			next++
		} else {
			// Delete a random existing element.
			var id int32
			for k := range reference {
				id = k
				break
			}
			if !tr.Delete(reference[id], id) {
				t.Fatalf("step %d: delete of existing item %d failed", step, id)
			}
			delete(reference, id)
		}
	}
	if tr.Len() != len(reference) {
		t.Fatalf("size %d != reference %d", tr.Len(), len(reference))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	got := 0
	tr.All(func(e Entry) bool {
		if r, ok := reference[e.Data]; !ok || !r.Equal(e.Rect) {
			t.Fatalf("unexpected entry %d %v", e.Data, e.Rect)
		}
		got++
		return true
	})
	if got != len(reference) {
		t.Fatalf("enumerated %d entries, want %d", got, len(reference))
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tr := MustNew(smallOpts())
	tr.InsertItems(randomItems(rand.New(rand.NewSource(9)), 300, 0.02))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("fresh tree invalid: %v", err)
	}
	// Corrupt a directory rectangle: shrink it so it no longer covers its
	// child.
	root := tr.Root()
	if root.IsLeaf() {
		t.Fatal("tree unexpectedly flat")
	}
	saved := root.Entries[0].Rect
	root.Entries[0].Rect = geom.Rect{XL: saved.XL, YL: saved.YL, XU: saved.XL, YU: saved.YL}
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("expected invariant violation after corrupting a directory rectangle")
	}
	root.Entries[0].Rect = saved

	// A directory rectangle that covers its child but is larger than the
	// child's MBR breaks the exactness insertion relies on (insertRec grows
	// a parent rectangle by union).
	root.Entries[0].Rect.XU = math.Nextafter(saved.XU, math.Inf(1))
	if err := tr.CheckInvariants(); !errors.Is(err, ErrInvalidMBR) {
		t.Fatalf("covering but inexact directory rectangle: CheckInvariants = %v, want ErrInvalidMBR", err)
	}
	root.Entries[0].Rect = saved

	// Corrupt the size counter.
	tr.size++
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("expected invariant violation after corrupting the size")
	}
	tr.size--
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("restored tree invalid: %v", err)
	}
}
