package costmodel

import "testing"

func testCatalog() Catalog {
	return Catalog{
		PageSize: 1024,
		Height:   3,
		Levels: []LevelStats{
			{Level: 0, Nodes: 100, Entries: 2000, AvgEntryWidth: 0.01},
			{Level: 1, Nodes: 10, Entries: 100, AvgEntryWidth: 0.1},
			{Level: 2, Nodes: 1, Entries: 10, AvgEntryWidth: 0.5},
		},
	}
}

func TestCatalogSubtreeExpectations(t *testing.T) {
	c := testCatalog()
	if !c.Valid() {
		t.Fatal("catalog should be valid")
	}
	if got := c.DataEntries(); got != 2000 {
		t.Errorf("DataEntries = %d, want 2000", got)
	}
	// A leaf subtree is one page holding its share of the data.
	if got := c.SubtreePages(0); got != 1 {
		t.Errorf("SubtreePages(0) = %v, want 1", got)
	}
	if got := c.SubtreeEntries(0); got != 20 {
		t.Errorf("SubtreeEntries(0) = %v, want 20", got)
	}
	// A level-1 subtree averages (100 leaves + 10 dirs) / 10 roots pages.
	if got := c.SubtreePages(1); got != 11 {
		t.Errorf("SubtreePages(1) = %v, want 11", got)
	}
	if got := c.SubtreeEntries(1); got != 200 {
		t.Errorf("SubtreeEntries(1) = %v, want 200", got)
	}
	// The root subtree is the whole tree.
	if got := c.SubtreePages(2); got != 111 {
		t.Errorf("SubtreePages(2) = %v, want 111", got)
	}
	if got := c.SubtreeEntries(2); got != 2000 {
		t.Errorf("SubtreeEntries(2) = %v, want 2000", got)
	}
	// Out-of-range levels clamp to the recorded range instead of panicking.
	if got := c.SubtreePages(9); got != 111 {
		t.Errorf("SubtreePages(9) = %v, want 111 (clamped)", got)
	}
	if got := c.SubtreeEntries(-1); got != 20 {
		t.Errorf("SubtreeEntries(-1) = %v, want 20 (clamped)", got)
	}
	if w := c.LeafExtent(); w != 0.01 {
		t.Errorf("LeafExtent = %v, want 0.01", w)
	}
}

func TestCatalogInvalid(t *testing.T) {
	var zero Catalog
	if zero.Valid() {
		t.Error("zero catalog must be invalid")
	}
	if zero.DataEntries() != 0 || zero.SubtreePages(1) != 0 || zero.SubtreeEntries(1) != 0 {
		t.Error("invalid catalog must report zero expectations")
	}
	if w := zero.LeafExtent(); w != 0 {
		t.Errorf("invalid catalog reports leaf extent %v, want 0", w)
	}
	empty := Catalog{Levels: []LevelStats{{Nodes: 0}}}
	if empty.Valid() {
		t.Error("catalog with an empty leaf level must be invalid")
	}
}
