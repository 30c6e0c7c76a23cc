package rtree

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/storage"
)

func TestBulkLoadSTRStructureAndQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randomItems(rng, 10000, 0.005)
	tr, err := BulkLoadSTR(Options{PageSize: storage.PageSize1K}, items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	// Packed trees use far fewer data pages than dynamically built trees.
	dynamic := MustNew(Options{PageSize: storage.PageSize1K})
	dynamic.InsertItems(items)
	if packed, dyn := tr.Stats().DataPages, dynamic.Stats().DataPages; packed >= dyn {
		t.Errorf("bulk-loaded tree uses %d data pages, dynamic tree %d", packed, dyn)
	}
	// Queries agree with a linear scan.
	query := geom.Rect{XL: 0.25, YL: 0.25, XU: 0.3, YU: 0.3}
	want := 0
	for _, it := range items {
		if it.Rect.Intersects(query) {
			want++
		}
	}
	got := 0
	tr.Search(query, func(Entry) bool { got++; return true })
	if got != want {
		t.Fatalf("bulk-loaded query returned %d results, want %d", got, want)
	}
}

func TestBulkLoadEmptyAndErrors(t *testing.T) {
	tr, err := BulkLoadSTR(Options{}, nil)
	if err != nil || tr.Len() != 0 {
		t.Fatalf("empty bulk load: %v, len=%d", err, tr.Len())
	}
	if _, err := BulkLoadSTR(Options{PageSize: 16}, nil); err == nil {
		t.Fatal("expected error for tiny page")
	}
}

func TestBuildHelper(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(13)), 1000, 0.01)
	dynamic, err := Build(Options{PageSize: storage.PageSize1K}, items, false)
	if err != nil || dynamic.Len() != len(items) {
		t.Fatalf("dynamic build: %v", err)
	}
	packed, err := Build(Options{PageSize: storage.PageSize1K}, items, true)
	if err != nil || packed.Len() != len(items) {
		t.Fatalf("packed build: %v", err)
	}
	if _, err := Build(Options{PageSize: 16}, items, false); err == nil {
		t.Fatal("expected error for tiny page")
	}
}

// TestSaveLoadRoundTrip commits a tree to a pager and reopens it: the
// reloaded tree has one page per node, the same shape and the same answers.
func TestSaveLoadRoundTrip(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(14)), 3000, 0.01)
	tr := MustNew(Options{PageSize: storage.PageSize2K})
	tr.InsertItems(items)

	p := memPager(t, storage.PageSize2K)
	s, err := NewTreeStore(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if p.Len() != tr.Stats().TotalPages() {
		t.Fatalf("pager holds %d pages, tree has %d", p.Len(), tr.Stats().TotalPages())
	}
	reopened, err := OpenTreeStore(p, Options{PageSize: storage.PageSize2K})
	if err != nil {
		t.Fatalf("OpenTreeStore: %v", err)
	}
	loaded := reopened.Tree()
	if loaded.Len() != tr.Len() || loaded.Height() != tr.Height() {
		t.Fatalf("loaded tree len=%d height=%d, want len=%d height=%d",
			loaded.Len(), loaded.Height(), tr.Len(), tr.Height())
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatalf("loaded tree invariants: %v", err)
	}
	// Queries on the loaded tree agree with the original (coordinates are
	// float32-rounded on disk, so query with a slightly padded window).
	query := geom.Rect{XL: 0.4, YL: 0.4, XU: 0.6, YU: 0.6}
	origCount, loadedCount := 0, 0
	tr.Search(query, func(Entry) bool { origCount++; return true })
	loaded.Search(query, func(Entry) bool { loadedCount++; return true })
	if diff := origCount - loadedCount; diff > 2 || diff < -2 {
		t.Fatalf("query count drift after round trip: %d vs %d", origCount, loadedCount)
	}
}

func TestSaveLoadErrors(t *testing.T) {
	wide := memPager(t, storage.PageSize2K)
	s, err := NewTreeStore(MustNew(Options{PageSize: storage.PageSize2K}), wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTreeStore(wide, Options{PageSize: storage.PageSize1K}); err == nil {
		t.Fatal("expected page-size mismatch error on OpenTreeStore")
	}
	dangling := memPager(t, storage.PageSize1K)
	dangling.SetRoot(42)
	if _, err := dangling.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTreeStore(dangling, Options{PageSize: storage.PageSize1K}); !errors.Is(err, storage.ErrUnknownPage) {
		t.Fatalf("expected unknown-page error on OpenTreeStore, got %v", err)
	}
	if _, err := OpenTreeStore(dangling, Options{PageSize: 16}); err == nil {
		t.Fatal("expected options error on OpenTreeStore")
	}
}

func TestSearchTrackedChargesAccesses(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(15)), 2000, 0.01)
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	tr.InsertItems(items)

	m := metrics.NewCollector()
	tracker := buffer.NewTracker(buffer.NewLRU(0), m, storage.PageSize1K, false)
	tr.SearchTracked(geom.Rect{XL: 0.1, YL: 0.1, XU: 0.2, YU: 0.2}, tracker, func(Entry) bool { return true })
	if m.DiskReads() == 0 {
		t.Fatal("tracked search must charge disk reads")
	}
	if m.Comparisons() == 0 {
		t.Fatal("tracked search must charge comparisons")
	}
	// A repeated identical search with a large buffer is served from it.
	m2 := metrics.NewCollector()
	tracker2 := buffer.NewTracker(buffer.NewLRU(10000), m2, storage.PageSize1K, false)
	tr.SearchTracked(geom.Rect{XL: 0.1, YL: 0.1, XU: 0.2, YU: 0.2}, tracker2, func(Entry) bool { return true })
	first := m2.DiskReads()
	tr.SearchTracked(geom.Rect{XL: 0.1, YL: 0.1, XU: 0.2, YU: 0.2}, tracker2, func(Entry) bool { return true })
	if m2.DiskReads() != first {
		t.Fatalf("second search caused %d extra disk reads", m2.DiskReads()-first)
	}
}

func TestBatchSearchSubtreeMatchesIndividualQueries(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(16)), 3000, 0.01)
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	tr.InsertItems(items)

	rng := rand.New(rand.NewSource(17))
	queries := make([]geom.Rect, 20)
	for i := range queries {
		x, y := rng.Float64(), rng.Float64()
		queries[i] = geom.Rect{XL: x, YL: y, XU: x + 0.05, YU: y + 0.05}
	}

	// Reference: individual window queries.
	want := make(map[[2]int32]bool)
	for qi, q := range queries {
		tr.Search(q, func(e Entry) bool {
			want[[2]int32{int32(qi), e.Data}] = true
			return true
		})
	}
	got := make(map[[2]int32]bool)
	var scratch BatchScratch
	tr.BatchSearchSubtreeScratch(tr.Root(), queries, nil, &scratch, func(qi int, e Entry) {
		got[[2]int32{int32(qi), e.Data}] = true
	})
	if len(got) != len(want) {
		t.Fatalf("batch search found %d matches, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("batch search missing %v", k)
		}
	}

	// Policy (b) guarantee: with batching, every page of the subtree is read
	// at most once even without any buffer.
	m := metrics.NewCollector()
	tracker := buffer.NewTracker(buffer.NewLRU(0), m, storage.PageSize1K, false)
	tr.BatchSearchSubtreeScratch(tr.Root(), queries, tracker, &scratch, func(int, Entry) {})
	if m.DiskReads() > int64(tr.Stats().TotalPages()) {
		t.Fatalf("batch search read %d pages, tree has only %d", m.DiskReads(), tr.Stats().TotalPages())
	}

	// Empty query list is a no-op.
	tr.BatchSearchSubtreeScratch(tr.Root(), nil, nil, &scratch, func(int, Entry) { t.Fatal("unexpected callback") })
}
