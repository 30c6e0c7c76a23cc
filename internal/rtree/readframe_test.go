package rtree

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/buffer"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// TestOpenTreeStoreReadsEachPageOnce: reopening a committed tree reads
// every page of it exactly once — the walk that rebuilds the nodes also
// binds them to their pages and seeds the checksum diff.
func TestOpenTreeStoreReadsEachPageOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	s, fs := newTestStore(t, randomItems(rng, 2000, 0.01))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	pages := 0
	s.Tree().Walk(func(*Node) { pages++ })
	if s.Tree().Height() < 3 {
		t.Fatalf("tree of height %d does not exercise the directory walk", s.Tree().Height())
	}
	if err := s.Pager().Close(); err != nil {
		t.Fatal(err)
	}

	p, err := storage.OpenPager(fs, "tree.db", storage.PageSize1K, storage.PagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	before := p.Stats().Reads
	s2, err := OpenTreeStore(p, Options{PageSize: storage.PageSize1K})
	if err != nil {
		t.Fatal(err)
	}
	if reads := p.Stats().Reads - before; reads != int64(pages) {
		t.Fatalf("OpenTreeStore made %d page reads for a %d-page tree, want one per page", reads, pages)
	}
	if st, err := s2.Commit(); err != nil || st.PagesWritten != 0 {
		t.Fatalf("commit after reopen: %+v, %v (the one-pass bind must seed every checksum)", st, err)
	}
}

// TestTrackerMissThroughEpochReaderAllocatesNothing: with a full page cache
// a counted miss through an EpochReader over real files is one physical
// read into the tracker's frame and one Put that recycles the evicted
// cache frame — no allocation.
func TestTrackerMissThroughEpochReaderAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rng := rand.New(rand.NewSource(40))
	p, err := storage.OpenPager(storage.OSVFS{}, filepath.Join(t.TempDir(), "r.db"), storage.PageSize4K, storage.PagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr := MustNew(Options{PageSize: storage.PageSize4K})
	tr.InsertItems(randomItems(rng, 3000, 0.01))
	s, err := NewTreeStore(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	reader := s.EpochReader(tr.Snapshot())
	var ids []storage.PageID
	tr.Walk(func(n *Node) { ids = append(ids, n.ID) })
	const cached = 4
	if len(ids) < 2*cached {
		t.Fatalf("%d pages: too few to cycle past a %d-page cache", len(ids), cached)
	}

	// A zero-frame counted LRU makes every access a counted miss; cycling
	// through more pages than the cache holds makes every miss a cache miss.
	tracker := buffer.NewTracker(buffer.NewLRU(0), metrics.NewCollector(), storage.PageSize4K, false)
	tracker.SetPageReader(tr.ID(), reader)
	cache := buffer.NewPageCache(cached)
	tracker.SetPageCache(cache)
	for _, id := range ids {
		tracker.Access(tr.ID(), 0, id)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		tracker.Access(tr.ID(), 0, ids[i%len(ids)])
		i++
	})
	if err := tracker.ReadErr(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a warm counted miss allocates %.1f times, want 0", allocs)
	}
	if st := reader.Stats(); st.Physical < int64(len(ids)+200) || st.Versioned != 0 {
		t.Fatalf("reader stats %+v: every miss must be a physical read", st)
	}
	if st := cache.Stats(); st.Pages != cached || st.Hits != 0 {
		t.Fatalf("cache stats %+v: want a full cache that never hits", st)
	}
}
