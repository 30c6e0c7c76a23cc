package rtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// The incremental catalog maintenance must keep the exact per-level node and
// entry populations equal to what a from-scratch walk would count, after any
// mutation sequence, without ever walking the tree on the hot path.  These
// tests audit every mutation path — insert (with forced re-insertion and
// splits), buffered insert, delete (with CondenseTree and root shrinks), bulk
// load and persistence load — against that contract.

// walkPopulations counts the true per-level populations of a tree, the way a
// from-scratch recollection would see them (empty nodes are skipped).
func walkPopulations(t *Tree) (nodes, entries []int64) {
	nodes = make([]int64, t.Height())
	entries = make([]int64, t.Height())
	t.Walk(func(n *Node) {
		if len(n.Entries) == 0 {
			return
		}
		nodes[n.Level]++
		entries[n.Level] += int64(len(n.Entries))
	})
	return nodes, entries
}

// checkMaintained asserts that the maintained catalog matches the walk on the
// exact populations and that no recollection walk happened.
func checkMaintained(t *testing.T, tr *Tree, label string) {
	t.Helper()
	cat := tr.CatalogStats()
	if got := tr.CatalogRecollections(); got != 0 {
		t.Fatalf("%s: CatalogStats performed %d recollection walks, want 0", label, got)
	}
	nodes, entries := walkPopulations(tr)
	if tr.Len() == 0 {
		if cat.Valid() {
			t.Fatalf("%s: empty tree produced a valid catalog: %+v", label, cat)
		}
		return
	}
	if !cat.Valid() {
		t.Fatalf("%s: catalog invalid for %d entries", label, tr.Len())
	}
	if len(cat.Levels) != tr.Height() {
		t.Fatalf("%s: catalog has %d levels, tree height %d", label, len(cat.Levels), tr.Height())
	}
	for l, stat := range cat.Levels {
		if stat.Nodes != nodes[l] || stat.Entries != entries[l] {
			t.Fatalf("%s level %d: maintained %d nodes/%d entries, walk %d/%d",
				label, l, stat.Nodes, stat.Entries, nodes[l], entries[l])
		}
		if int64(stat.SampleSize) > stat.Nodes {
			t.Errorf("%s level %d: sample %d larger than population %d",
				label, l, stat.SampleSize, stat.Nodes)
		}
	}
	if cat.DataEntries() != int64(tr.Len()) {
		t.Errorf("%s: catalog reports %d data entries, tree holds %d", label, cat.DataEntries(), tr.Len())
	}
}

// checkOrders fails the test if any node carries an xl-order that does not
// match its entries.
func checkOrders(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainedCatalogMatchesWalkAfterRandomMutations drives randomized
// insert/delete/buffered-insert sequences over both variants and small pages
// (deep trees, frequent splits, forced re-insertions and condenses) and
// checks after every batch that the maintained populations are exact and no
// walk fired.  Every mutation starts from a fully swept tree (all xl-orders
// built) and must leave no stale order behind; every batch ends with the
// sweep joins checked against the nested loop.
func TestMaintainedCatalogMatchesWalkAfterRandomMutations(t *testing.T) {
	for _, variant := range []Variant{RStar, Quadratic} {
		for _, pageSize := range []int{8 * storage.EntrySize, storage.PageSize1K} {
			rng := rand.New(rand.NewSource(int64(pageSize) + int64(variant)))
			tr := MustNew(Options{PageSize: pageSize, Variant: variant})
			buf := NewInsertBuffer(tr, 64)
			var live []Item
			next := int32(0)
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
				checkMaintained(t, tr, "random-mutations")
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
			checkMaintained(t, tr, "drained")
		}
	}
}

func randomItem(rng *rand.Rand, id int32) Item {
	x, y := rng.Float64(), rng.Float64()
	return Item{
		Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.03, YU: y + rng.Float64()*0.03},
		Data: id,
	}
}

// TestMaintainedCatalogAfterBulkLoadMutations: bulk-loaded trees adopt the
// packing sampler as maintained state; further mutations must keep it exact.
func TestMaintainedCatalogAfterBulkLoadMutations(t *testing.T) {
	items := sampleItems(2500, 17)
	for name, load := range map[string]func() (*Tree, error){
		"str":     func() (*Tree, error) { return BulkLoadSTR(Options{PageSize: storage.PageSize1K}, items) },
		"hilbert": func() (*Tree, error) { return BulkLoadHilbert(Options{PageSize: storage.PageSize1K}, items) },
	} {
		tr, err := load()
		if err != nil {
			t.Fatal(err)
		}
		checkMaintained(t, tr, name+"-fresh")
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 400; i++ {
			it := randomItem(rng, int32(10000+i))
			tr.Insert(it.Rect, it.Data)
		}
		for i := 0; i < 300; i++ {
			if !tr.Delete(items[i].Rect, items[i].Data) {
				t.Fatalf("%s: delete %d failed", name, i)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMaintained(t, tr, name+"-mutated")
	}
}

// TestCatalogMaintenanceAblation pins the recollection behaviour both ways:
// with maintenance off every mutation forces a from-scratch walk on the next
// CatalogStats; switching maintenance back on rebuilds the counters once and
// then stays walk-free.
func TestCatalogMaintenanceAblation(t *testing.T) {
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	items := sampleItems(1200, 5)
	for _, it := range items {
		tr.Insert(it.Rect, it.Data)
	}
	if got := tr.CatalogRecollections(); got != 0 {
		t.Fatalf("maintained tree performed %d walks, want 0", got)
	}
	tr.SetCatalogMaintenance(false)
	tr.CatalogStats()
	if got := tr.CatalogRecollections(); got != 1 {
		t.Fatalf("ablated tree performed %d walks after first CatalogStats, want 1", got)
	}
	// Cached until the next mutation; then one more walk.
	tr.CatalogStats()
	tr.Insert(items[0].Rect, 99001)
	tr.CatalogStats()
	if got := tr.CatalogRecollections(); got != 2 {
		t.Fatalf("ablated tree performed %d walks after mutation, want 2", got)
	}
	// Back on: one rebuild walk happens inside SetCatalogMaintenance (not
	// counted as a CatalogStats stall), then mutations stay walk-free.
	tr.SetCatalogMaintenance(true)
	tr.Insert(items[1].Rect, 99002)
	cat := tr.CatalogStats()
	if got := tr.CatalogRecollections(); got != 2 {
		t.Fatalf("re-enabled tree performed %d walks, want 2", got)
	}
	nodes, entries := walkPopulations(tr)
	for l, stat := range cat.Levels {
		if stat.Nodes != nodes[l] || stat.Entries != entries[l] {
			t.Fatalf("re-enabled level %d: maintained %d/%d, walk %d/%d",
				l, stat.Nodes, stat.Entries, nodes[l], entries[l])
		}
	}
}

// TestMaintainedSamplesTrackChurn: the sampled shape averages must keep
// tracking the live tree under delete/buffered-insert churn — deletes and
// long hint runs refresh the reservoir, so the sampled mean leaf fan-out
// stays close to the true mean (which the exact counters give bit-exactly).
func TestMaintainedSamplesTrackChurn(t *testing.T) {
	items := sampleItems(4000, 33)
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	tr.InsertItems(items)
	// Heavy oldest-first churn: delete half, refill through the buffer.
	for _, it := range items[:2000] {
		if !tr.Delete(it.Rect, it.Data) {
			t.Fatalf("delete of %d failed", it.Data)
		}
	}
	rng := rand.New(rand.NewSource(2))
	buf := NewInsertBuffer(tr, 512)
	for i := 0; i < 2000; i++ {
		it := randomItem(rng, int32(100000+i))
		buf.Stage(it.Rect, it.Data)
	}
	buf.Flush()
	cat := tr.CatalogStats()
	if got := tr.CatalogRecollections(); got != 0 {
		t.Fatalf("churn caused %d recollection walks, want 0", got)
	}
	leaf := cat.Levels[0]
	trueFanout := float64(leaf.Entries) / float64(leaf.Nodes)
	if rel := math.Abs(leaf.AvgFanout-trueFanout) / trueFanout; rel > 0.25 {
		t.Errorf("sampled leaf fan-out %.1f drifted %.0f%% from the true mean %.1f",
			leaf.AvgFanout, 100*rel, trueFanout)
	}
}

// TestCatalogReadPathDoesNotPerturbDeterminism: CatalogStats is a read —
// calling it mid-construction (including while the root is still a leaf,
// where the assembly overrides the leaf sample ephemerally) must not change
// the catalog an identical construction sequence ends up with.
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

// TestMaintainedCatalogAfterLoad: a tree reopened from a pager carries
// maintained statistics from the load walk and stays walk-free under
// subsequent mutations.
func TestMaintainedCatalogAfterLoad(t *testing.T) {
	items := sampleItems(900, 21)
	orig := MustNew(Options{PageSize: storage.PageSize1K})
	orig.InsertItems(items)
	p := memPager(t, storage.PageSize1K)
	s, err := NewTreeStore(orig, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenTreeStore(p, Options{PageSize: storage.PageSize1K})
	if err != nil {
		t.Fatal(err)
	}
	loaded := reopened.Tree()
	checkMaintained(t, loaded, "loaded-fresh")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		it := randomItem(rng, int32(50000+i))
		loaded.Insert(it.Rect, it.Data)
	}
	// The on-disk format stores coordinates as float32, so deletes must use
	// the loaded (rounded) rectangles, not the original float64 ones.
	var stored []Item
	loaded.Walk(func(n *Node) {
		if !n.IsLeaf() {
			return
		}
		for _, e := range n.Entries {
			if e.Data < 50000 {
				stored = append(stored, Item{Rect: e.Rect, Data: e.Data})
			}
		}
	})
	for i := 0; i < 150; i++ {
		if !loaded.Delete(stored[i].Rect, stored[i].Data) {
			t.Fatalf("delete %d failed", i)
		}
	}
	checkMaintained(t, loaded, "loaded-mutated")
}
