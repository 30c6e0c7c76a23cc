package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/storage"
)

func sampleItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.05, YU: y + rng.Float64()*0.05},
			Data: int32(i),
		}
	}
	return items
}

func randomItem(rng *rand.Rand, id int32) Item {
	x, y := rng.Float64(), rng.Float64()
	return Item{
		Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.03, YU: y + rng.Float64()*0.03},
		Data: id,
	}
}

// oracleCatalog computes a tree's catalog by a walk written independently of
// CatalogStats: per level, the node and entry counts and the mean over the
// level's nodes (in pre-order) of each node's mean entry width.
func oracleCatalog(tr *Tree) costmodel.Catalog {
	cat := costmodel.Catalog{PageSize: tr.PageSize(), Height: tr.Height()}
	if tr.Len() == 0 {
		return cat
	}
	widths := make([]float64, tr.Height())
	nodes := make([]int64, tr.Height())
	entries := make([]int64, tr.Height())
	tr.Walk(func(n *Node) {
		var sum float64
		for _, e := range n.Entries {
			sum += e.Rect.XU - e.Rect.XL
		}
		widths[n.Level] += sum / float64(len(n.Entries))
		nodes[n.Level]++
		entries[n.Level] += int64(len(n.Entries))
	})
	for l := range nodes {
		cat.Levels = append(cat.Levels, costmodel.LevelStats{
			Level:         l,
			Nodes:         nodes[l],
			Entries:       entries[l],
			AvgEntryWidth: widths[l] / float64(nodes[l]),
		})
	}
	return cat
}

// checkCatalog asserts that the tree's catalog equals the oracle walk field
// for field, bit for bit, and that Stats agrees with it.
func checkCatalog(t *testing.T, tr *Tree, label string) costmodel.Catalog {
	t.Helper()
	got, want := tr.CatalogStats(), oracleCatalog(tr)
	if got.PageSize != want.PageSize || got.Height != want.Height || len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: catalog page size %d, height %d, %d levels; walk %d, %d, %d",
			label, got.PageSize, got.Height, len(got.Levels), want.PageSize, want.Height, len(want.Levels))
	}
	for l := range want.Levels {
		g, w := got.Levels[l], want.Levels[l]
		if g.Level != w.Level || g.Nodes != w.Nodes || g.Entries != w.Entries ||
			math.Float64bits(g.AvgEntryWidth) != math.Float64bits(w.AvgEntryWidth) {
			t.Fatalf("%s level %d: catalog %+v, walk %+v", label, l, g, w)
		}
	}
	if got.Valid() != (tr.Len() > 0) || got.DataEntries() != int64(tr.Len()) {
		t.Fatalf("%s: catalog valid=%v with %d data entries for a tree of %d",
			label, got.Valid(), got.DataEntries(), tr.Len())
	}
	var st Stats
	st.Height = tr.Height()
	tr.Walk(func(n *Node) {
		if n.IsLeaf() {
			st.DataPages++
			st.DataEntries += len(n.Entries)
		} else {
			st.DirPages++
			st.DirEntries += len(n.Entries)
		}
	})
	if s := tr.Stats(); s.Height != st.Height || s.DataPages != st.DataPages || s.DirPages != st.DirPages ||
		s.DataEntries != st.DataEntries || s.DirEntries != st.DirEntries {
		t.Fatalf("%s: Stats %+v, walk %+v", label, s, st)
	}
	return got
}

// checkOrders fails the test if any node carries an xl-order that does not
// match its entries.
func checkOrders(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogIsExactAfterMutations drives randomized insert/delete/buffered-
// insert sequences and checks after every batch that the catalog equals an
// oracle walk bit for bit — on writer trees at a small and a 1 KiB page
// (deep trees, frequent splits, forced re-insertions and condenses), on an
// STR bulk load, and on a tree reopened from a pager.  Every batch
// also publishes a snapshot whose catalog must describe the snapshot, not the
// writer: it is read before the writer mutates again (on even batches) or
// only after (on odd ones, so the snapshot's first walk runs on a version the
// writer has moved past), and re-checked after the next batch.  Every
// mutation starts from a fully swept tree (all xl-orders built) and must
// leave no stale order behind; every few batches the sweep joins are checked
// against the nested loop.
func TestCatalogIsExactAfterMutations(t *testing.T) {
	// Each start seeds its own mutation stream, so adding or removing a
	// start moves no other start's stream.
	type start struct {
		name string
		seed int64
		tree func(t *testing.T) *Tree
	}
	var starts []start
	for i, pageSize := range []int{8 * storage.EntrySize, storage.PageSize1K} {
		opts := Options{PageSize: pageSize}
		starts = append(starts, start{
			name: fmt.Sprintf("R*-tree-%dB", pageSize),
			seed: 1000 + int64(i),
			tree: func(*testing.T) *Tree { return MustNew(opts) },
		})
	}
	items := sampleItems(1500, 17)
	opts := Options{PageSize: storage.PageSize1K}
	starts = append(starts,
		// A bulk load starts with every node's xl-order built.
		start{"str", 1002, func(t *testing.T) *Tree {
			tr, err := BulkLoadSTR(opts, items)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		start{"reopened", 1003, func(t *testing.T) *Tree {
			p := memPager(t, opts.PageSize)
			s, err := NewTreeStore(MustNew(opts), p)
			if err != nil {
				t.Fatal(err)
			}
			s.Tree().InsertItems(items[:900])
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenTreeStore(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			return reopened.Tree()
		}},
	)

	for _, st := range starts {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(st.seed))
			tr := st.tree(t)
			checkCatalog(t, tr, "fresh")
			buf := NewInsertBuffer(tr, 64)
			// Start from the stored rectangles: a reopened tree holds them
			// rounded to the page format's float32, and deletes must match.
			live := treeContents(tr)
			next := int32(1 << 20)
			var snap *Tree
			for batch := 0; batch < 40; batch++ {
				switch op := rng.Intn(3); {
				case op == 0 || len(live) < 50:
					// Plain inserts.
					for i := 0; i < 30; i++ {
						it := randomItem(rng, next)
						next++
						touchOrders(tr)
						tr.Insert(it.Rect, it.Data)
						live = append(live, it)
						checkOrders(t, tr)
					}
				case op == 1:
					// Buffered inserts (staged, Hilbert-sorted, hint applied).
					for i := 0; i < 30; i++ {
						it := randomItem(rng, next)
						next++
						buf.Stage(it.Rect, it.Data)
						live = append(live, it)
					}
					touchOrders(tr)
					buf.Flush()
				default:
					// Deletes, including enough to trigger condenses.
					for i := 0; i < 20 && len(live) > 0; i++ {
						j := rng.Intn(len(live))
						it := live[j]
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						touchOrders(tr)
						if !tr.Delete(it.Rect, it.Data) {
							t.Fatalf("delete of live item %d failed", it.Data)
						}
						checkOrders(t, tr)
					}
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if snap != nil {
					// The writer moved on; the snapshot's catalog must not.
					checkCatalog(t, snap, "snapshot-after")
				}
				checkCatalog(t, tr, "writer")
				snap = tr.Snapshot()
				if batch%2 == 0 {
					checkCatalog(t, snap, "snapshot-before")
				}
				if batch%8 == 7 {
					JoinCheck(t, tr)
				}
			}
			// Drain to empty: root shrinks all the way down.
			for _, it := range live {
				if !tr.Delete(it.Rect, it.Data) {
					t.Fatalf("drain delete of %d failed", it.Data)
				}
			}
			checkCatalog(t, tr, "drained")
			checkCatalog(t, snap, "snapshot-drained")
		})
	}
}

// TestCatalogStatsMatchStructure checks the catalog's derived expectations
// against a full walk, for every construction path: the subtree expectations
// at the root level must describe the whole tree.
func TestCatalogStatsMatchStructure(t *testing.T) {
	items := sampleItems(3000, 7)
	build := map[string]func() *Tree{
		"bulk-str": func() *Tree {
			tr, err := BulkLoadSTR(Options{PageSize: storage.PageSize1K}, items)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		"dynamic": func() *Tree {
			tr := MustNew(Options{PageSize: storage.PageSize1K})
			tr.InsertItems(items)
			return tr
		},
	}
	for name, mk := range build {
		tr := mk()
		cat := checkCatalog(t, tr, name)
		var totalPages int64
		for _, stat := range cat.Levels {
			totalPages += stat.Nodes
		}
		// A subtree rooted at the top level is the whole tree.
		root := tr.Height() - 1
		if got := cat.SubtreePages(root); got != float64(totalPages) {
			t.Errorf("%s: SubtreePages(root) = %v, want %d", name, got, totalPages)
		}
		if w := cat.Levels[0].AvgEntryWidth; w <= 0 || w > 0.05 {
			t.Errorf("%s: leaf width %v outside (0, 0.05]", name, w)
		}
	}
}

// TestCatalogStatsDeterministic: identical trees must produce identical
// catalogs, which is what makes the schedules derived from the statistics
// reproducible.
func TestCatalogStatsDeterministic(t *testing.T) {
	items := sampleItems(2000, 11)
	a, err := BulkLoadSTR(Options{PageSize: storage.PageSize1K}, items)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BulkLoadSTR(Options{PageSize: storage.PageSize1K}, items)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.CatalogStats(), b.CatalogStats()
	if len(ca.Levels) != len(cb.Levels) {
		t.Fatalf("level counts differ: %d vs %d", len(ca.Levels), len(cb.Levels))
	}
	for l := range ca.Levels {
		if ca.Levels[l] != cb.Levels[l] {
			t.Errorf("level %d differs:\n%+v\n%+v", l, ca.Levels[l], cb.Levels[l])
		}
	}
	// The lazy walk must agree with itself across calls (cache hit or not).
	if again := a.CatalogStats(); again.Levels[0] != ca.Levels[0] {
		t.Error("repeated CatalogStats calls disagree")
	}
}

// TestCatalogStatsInvalidation: mutations must invalidate the cache, and the
// next walk must describe the mutated tree.
func TestCatalogStatsInvalidation(t *testing.T) {
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	items := sampleItems(800, 3)
	tr.InsertItems(items)
	before := tr.CatalogStats()
	if before.DataEntries() != 800 {
		t.Fatalf("catalog reports %d entries, want 800", before.DataEntries())
	}
	extra := geom.Rect{XL: 0.1, YL: 0.1, XU: 0.2, YU: 0.2}
	tr.Insert(extra, 9001)
	after := tr.CatalogStats()
	if after.DataEntries() != 801 {
		t.Errorf("after insert: catalog reports %d entries, want 801", after.DataEntries())
	}
	if !tr.Delete(extra, 9001) {
		t.Fatal("delete failed")
	}
	if got := tr.CatalogStats().DataEntries(); got != 800 {
		t.Errorf("after delete: catalog reports %d entries, want 800", got)
	}
}

// TestCatalogReadPathDoesNotPerturbDeterminism: CatalogStats is a read —
// calling it mid-construction (including while the root is still a leaf)
// must not change the catalog an identical construction sequence ends up
// with.
func TestCatalogReadPathDoesNotPerturbDeterminism(t *testing.T) {
	items := sampleItems(1500, 29)
	build := func(readEvery int) *Tree {
		tr := MustNew(Options{PageSize: storage.PageSize1K})
		for i, it := range items {
			tr.Insert(it.Rect, it.Data)
			if readEvery > 0 && i%readEvery == 0 {
				tr.CatalogStats()
			}
		}
		return tr
	}
	quiet := build(0).CatalogStats()
	chatty := build(1).CatalogStats() // reads from the very first insert on
	if len(quiet.Levels) != len(chatty.Levels) {
		t.Fatalf("level counts differ: %d vs %d", len(quiet.Levels), len(chatty.Levels))
	}
	for l := range quiet.Levels {
		if quiet.Levels[l] != chatty.Levels[l] {
			t.Errorf("level %d differs between read patterns:\n%+v\n%+v",
				l, quiet.Levels[l], chatty.Levels[l])
		}
	}
}
