package rtree

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/storage"
)

// TestEpochReaderServesSnapshotState pins the version-store contract: after
// the writer commits past a snapshot, the snapshot's EpochReader serves
// untouched pages physically through the pager and rewritten or freed pages
// from the snapshot's own nodes — every page decodes to the snapshot's
// structure, never the writer's.
func TestEpochReaderServesSnapshotState(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	items := randomItems(rng, 600, 0.01)
	s, _ := newTestStore(t, items)
	defer s.Pager().Close()
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := s.Tree().Snapshot()
	reader := s.EpochReader(snap)

	// Writer moves on with spatially clustered churn (left strip of the unit
	// square only), so leaves covering the rest of the space keep their pages.
	deleted := 0
	for _, it := range items {
		if deleted >= 40 {
			break
		}
		if it.Rect.XL > 0.15 {
			continue
		}
		if !s.Tree().Delete(it.Rect, it.Data) {
			t.Fatalf("delete of live item %d failed", it.Data)
		}
		deleted++
	}
	if deleted == 0 {
		t.Fatal("no items in the churn strip — seed produced a degenerate layout")
	}
	var fresh []Item
	for i := 0; i < 40; i++ {
		x, y := rng.Float64()*0.15, rng.Float64()
		fresh = append(fresh, Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + 0.01, YU: y + 0.01},
			Data: int32(100_000 + i),
		})
	}
	s.Tree().InsertItemsBuffered(fresh)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Every snapshot page must decode to exactly the snapshot's node.
	pageSize := snap.PageSize()
	var checked, mismatches int
	snap.Walk(func(n *Node) {
		buf, err := reader.ReadPage(n.ID, nil)
		if err != nil {
			t.Fatalf("reading snapshot node %d: %v", n.ID, err)
		}
		dn, err := storage.DecodeNode(buf, pageSize)
		if err != nil {
			t.Fatalf("decoding snapshot node %d: %v", n.ID, err)
		}
		if int(dn.Level) != n.Level || len(dn.Entries) != len(n.Entries) {
			mismatches++
			return
		}
		for i, e := range n.Entries {
			if e.Child == nil && dn.Entries[i].Ref != uint32(e.Data) {
				mismatches++
				return
			}
		}
		checked++
	})
	if mismatches != 0 {
		t.Fatalf("%d of %d snapshot pages decoded to a different node", mismatches, checked+mismatches)
	}
	st := reader.Stats()
	if st.Physical == 0 {
		t.Fatal("no page was read physically — the epoch check serves everything from memory")
	}
	if st.Versioned == 0 {
		t.Fatal("no page came from the version store although the writer rewrote pages")
	}
	t.Logf("epoch reader: %d physical, %d versioned of %d pages", st.Physical, st.Versioned, checked)

	// A fresh reader at the current boundary sees everything physically.
	snap2 := s.Tree().Snapshot()
	reader2 := s.EpochReader(snap2)
	snap2.Walk(func(n *Node) {
		if _, err := reader2.ReadPage(n.ID, nil); err != nil {
			t.Fatalf("current-epoch read of node %d: %v", n.ID, err)
		}
	})
	if st := reader2.Stats(); st.Versioned != 0 {
		t.Fatalf("current-epoch reader used the version store for %d pages", st.Versioned)
	}
}

// TestTreeStoreWriteThroughCache: pages a commit rewrites or frees are
// invalidated in an attached PageCache, so stale bytes are never served.
func TestTreeStoreWriteThroughCache(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	items := randomItems(rng, 300, 0.01)
	s, _ := newTestStore(t, items)
	defer s.Pager().Close()
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	treeID := s.Tree().ID()
	cache := buffer.NewPageCache(256)
	s.SetPageCache(cache, treeID)

	// Warm the cache with every page, as a tracker would.
	var keys []buffer.FrameKey
	s.Tree().Walk(func(n *Node) {
		buf, err := s.ReadPage(n.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := buffer.FrameKey{Tree: treeID, Page: n.ID}
		cache.Put(key, buf)
		keys = append(keys, key)
	})

	// Insert outside the current bounds: the MBRs grow along the whole
	// insertion path, so the root page's bytes are guaranteed to change.
	rootID := s.Tree().Root().ID
	s.Tree().Insert(geom.Rect{XL: 2, YL: 2, XU: 2.1, YU: 2.1}, 777_777)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// The root page was rewritten, so its cached bytes must be gone, while
	// pages of untouched subtrees stay cached.
	rootKey := buffer.FrameKey{Tree: treeID, Page: rootID}
	if _, ok := cache.Get(rootKey); ok {
		t.Fatal("cache still serves the pre-commit root page")
	}
	surviving := 0
	for _, k := range keys {
		if _, ok := cache.Get(k); ok {
			surviving++
		}
	}
	if surviving == 0 {
		t.Fatal("commit invalidated every page — write-through should only drop rewritten ones")
	}
	fresh, err := s.ReadPage(rootID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) == 0 {
		t.Fatal("re-read of rewritten root returned no bytes")
	}
}

// TestTreeStoreConcurrentReadersDuringCommit runs ReadPage and EpochReader
// traffic from several goroutines while the writer mutates and commits.
// Under -race this pins the RWMutex discipline: readers never observe a
// half-committed page table.
func TestTreeStoreConcurrentReadersDuringCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	items := randomItems(rng, 500, 0.01)
	s, _ := newTestStore(t, items)
	defer s.Pager().Close()
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := s.Tree().Snapshot()
	reader := s.EpochReader(snap)
	var ids []storage.PageID
	snap.Walk(func(n *Node) { ids = append(ids, n.ID) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[r.Intn(len(ids))]
				if _, err := reader.ReadPage(id, nil); err != nil {
					t.Errorf("epoch read of %d: %v", id, err)
					return
				}
			}
		}(int64(200 + g))
	}

	next := int32(1 << 20)
	for round := 0; round < 10; round++ {
		fresh := randomItems(rng, 30, 0.01)
		for i := range fresh {
			fresh[i].Data = next
			next++
		}
		s.Tree().InsertItemsBuffered(fresh)
		for _, it := range items[round*10 : round*10+10] {
			s.Tree().Delete(it.Rect, it.Data)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}
