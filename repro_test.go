package repro

import (
	"bytes"
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end the way a downstream
// user would: generate data, build indexes, join them, refine the result and
// run a slice of the paper's experiments.

func TestFacadeTreeJoinWorkflow(t *testing.T) {
	streets := GenerateDataset(DatasetConfig{Kind: Streets, Count: 3000, Seed: 1})
	rivers := GenerateDataset(DatasetConfig{Kind: Rivers, Count: 3000, Seed: 2})

	r, err := BuildRTree(RTreeOptions{PageSize: PageSize1K}, streets, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildRTree(RTreeOptions{PageSize: PageSize1K}, rivers, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(streets) || s.Len() != len(rivers) {
		t.Fatalf("tree sizes %d/%d", r.Len(), s.Len())
	}

	var want int
	for _, a := range streets {
		for _, b := range rivers {
			if a.Rect.Intersects(b.Rect) {
				want++
			}
		}
	}
	for _, method := range []JoinMethod{SpatialJoin1, SpatialJoin4} {
		res, err := TreeJoin(r, s, JoinOptions{Method: method, BufferBytes: 128 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("%v found %d pairs, want %d", method, res.Count, want)
		}
	}
}

func TestFacadeCatalogStats(t *testing.T) {
	streets := GenerateDataset(DatasetConfig{Kind: Streets, Count: 3000, Seed: 6})
	r, err := BuildRTree(RTreeOptions{PageSize: PageSize1K}, streets, true)
	if err != nil {
		t.Fatal(err)
	}
	var cat TreeCatalog = r.CatalogStats()
	if !cat.Valid() || cat.DataEntries() != int64(len(streets)) || len(cat.Levels) != r.Height() {
		t.Fatalf("catalog stats %+v do not describe a tree of %d entries and height %d", cat, len(streets), r.Height())
	}
}

func TestFacadeBufferedInsertion(t *testing.T) {
	items := GenerateDataset(DatasetConfig{Kind: Streets, Count: 3000, Seed: 12})
	buffered, err := BuildRTreeBuffered(RTreeOptions{PageSize: PageSize1K}, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := buffered.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if buffered.Len() != len(items) {
		t.Fatalf("buffered build holds %d entries, want %d", buffered.Len(), len(items))
	}
	// Streaming updates through an explicit buffer, interleaved with deletes.
	tr, err := NewRTree(RTreeOptions{PageSize: PageSize1K})
	if err != nil {
		t.Fatal(err)
	}
	buf := NewRTreeInsertBuffer(tr, 256)
	for _, it := range items {
		buf.Stage(it.Rect, it.Data)
	}
	buf.Flush()
	for _, it := range items[:500] {
		if !tr.Delete(it.Rect, it.Data) {
			t.Fatalf("delete of %d failed", it.Data)
		}
	}
	if tr.Len() != len(items)-500 {
		t.Fatalf("tree holds %d entries after deletes, want %d", tr.Len(), len(items)-500)
	}
	// The catalog describes the tree after the whole update sequence.
	cat := tr.CatalogStats()
	if !cat.Valid() || cat.DataEntries() != int64(tr.Len()) || len(cat.Levels) != tr.Height() {
		t.Fatalf("catalog stats stale after updates: %+v", cat)
	}
	st := tr.Stats()
	if int(cat.Levels[0].Nodes) != st.DataPages || cat.SubtreePages(tr.Height()-1) != float64(st.TotalPages()) {
		t.Fatalf("catalog %+v disagrees with Stats %+v", cat, st)
	}
}

func TestFacadeWindowQuery(t *testing.T) {
	items := GenerateDataset(DatasetConfig{Kind: Streets, Count: 2000, Seed: 3})
	tree, err := BuildRTree(RTreeOptions{PageSize: PageSize2K}, items, false)
	if err != nil {
		t.Fatal(err)
	}
	window := NewRect(0.3, 0.3, 0.5, 0.5)
	want := 0
	for _, it := range items {
		if it.Rect.Intersects(window) {
			want++
		}
	}
	got := 0
	tree.Search(window, func(e TreeEntry) bool { got++; return true })
	if got != want {
		t.Fatalf("window query returned %d results, want %d", got, want)
	}
}

func TestFacadeRelationJoin(t *testing.T) {
	streets := LineObjects(GenerateDataset(DatasetConfig{Kind: Streets, Count: 2000, Seed: 4}))
	rivers := LineObjects(GenerateDataset(DatasetConfig{Kind: Rivers, Count: 2000, Seed: 5}))

	r, err := BuildRelation("streets", streets, RTreeOptions{PageSize: PageSize1K}, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildRelation("rivers", rivers, RTreeOptions{PageSize: PageSize1K}, false)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := SpatialJoin(r, s, SpatialJoinOptions{
		Type:   MBRJoin,
		Filter: JoinOptions{Method: SpatialJoin4, BufferBytes: 128 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SpatialJoin(r, s, SpatialJoinOptions{
		Type:   IDJoin,
		Filter: JoinOptions{Method: SpatialJoin4, BufferBytes: 128 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Pairs) > len(filter.Pairs) {
		t.Fatalf("refinement added pairs: %d > %d", len(exact.Pairs), len(filter.Pairs))
	}
	if filter.Estimate.TotalSeconds() <= 0 {
		t.Fatal("missing cost estimate")
	}
	if filter.Metrics.DiskReads <= 0 {
		t.Fatal("missing I/O metrics")
	}
}

func TestFacadeCostModel(t *testing.T) {
	m := DefaultCostModel()
	e := m.Estimate(1000, PageSize1K, 1_000_000)
	if !e.IOBound() {
		t.Fatal("expected an I/O-bound estimate")
	}
}

func TestFacadeExperiments(t *testing.T) {
	suite := NewExperimentSuite(ExperimentConfig{
		Scale:         0.01,
		PageSizes:     []int{PageSize1K},
		BufferSizesKB: []int{0, 128},
	})
	rows := suite.Table1()
	if len(rows) != 1 || rows[0].M != 51 {
		t.Fatalf("Table1 = %+v", rows)
	}
	var buf bytes.Buffer
	RunAllExperiments(ExperimentConfig{
		Scale:         0.01,
		PageSizes:     []int{PageSize1K},
		BufferSizesKB: []int{128},
		BulkLoad:      true,
	}, &buf)
	if !strings.Contains(buf.String(), "Table 8") {
		t.Fatal("RunAllExperiments output incomplete")
	}
}

func TestFacadeConstantsAreDistinct(t *testing.T) {
	// The exported constants must map onto the internal ones (compile-time
	// aliasing is checked implicitly; here we make sure they are distinct).
	if WindowPerPair == BatchedWindows || BatchedWindows == SweepOrder {
		t.Fatal("height policies must be distinct")
	}
	if MBRJoin == IDJoin || IDJoin == ObjectJoin {
		t.Fatal("join types must be distinct")
	}
	if NestedLoopJoin == SpatialJoin1 {
		t.Fatal("join methods must be distinct")
	}
	if WorldRect().Area() != 1 {
		t.Fatal("world rect must be the unit square")
	}
}
