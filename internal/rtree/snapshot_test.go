package rtree

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
)

// treeFingerprint hashes the full structure of a tree — node identifiers,
// levels and every entry's geometry and payload, in walk order — so any
// mutation that leaks into a snapshot changes the fingerprint.
func treeFingerprint(t *Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(uint64(int64(f * 1e6))) }
	t.Walk(func(n *Node) {
		w64(uint64(n.ID))
		w64(uint64(n.Level))
		w64(uint64(len(n.Entries)))
		for _, e := range n.Entries {
			wf(e.Rect.XL)
			wf(e.Rect.YL)
			wf(e.Rect.XU)
			wf(e.Rect.YU)
			w64(uint64(uint32(e.Data)))
		}
	})
	return h.Sum64()
}

// TestSnapshotImmutableAcrossMutations pins the copy-on-write contract: every
// published snapshot keeps its exact structure and contents however the
// writer mutates the tree afterwards — plain inserts, deletes, buffered mixed
// batches, splits, condenses and height changes included.
func TestSnapshotImmutableAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tree := MustNew(smallOpts())
	items := randomItems(rng, 400, 40)
	tree.InsertItems(items)

	type snap struct {
		tree  *Tree
		fp    uint64
		items []Item
	}
	var snaps []snap
	take := func() {
		s := tree.Snapshot()
		snaps = append(snaps, snap{tree: s, fp: treeFingerprint(s), items: sortedItems(s)})
	}
	take()

	live := append([]Item(nil), items...)
	nextID := int32(10_000)
	for round := 0; round < 6; round++ {
		// Delete a deterministic slice of the oldest tenth.
		del := len(live) / 10
		for _, it := range live[:del] {
			if !tree.Delete(it.Rect, it.Data) {
				t.Fatalf("delete of live item %d failed", it.Data)
			}
		}
		live = live[del:]
		// Insert a fresh batch, every other round through the buffered
		// (leaf-hint) path to cover the append fast path too.
		fresh := randomItems(rng, del+13, 40)
		for i := range fresh {
			fresh[i].Data = nextID
			nextID++
		}
		if round%2 == 0 {
			tree.InsertItemsBuffered(fresh)
		} else {
			tree.InsertItems(fresh)
		}
		live = append(live, fresh...)
		take()
	}

	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("writer tree invalid after rounds: %v", err)
	}
	for i, s := range snaps {
		if got := treeFingerprint(s.tree); got != s.fp {
			t.Errorf("snapshot %d structure changed: fingerprint %x -> %x", i, s.fp, got)
		}
		if got := sortedItems(s.tree); !itemsEqual(got, s.items) {
			t.Errorf("snapshot %d contents changed (%d -> %d items)", i, len(s.items), len(got))
		}
		if err := s.tree.CheckInvariants(); err != nil {
			t.Errorf("snapshot %d invalid: %v", i, err)
		}
	}
	// The writer's final contents must equal the reference model.
	want := append([]Item(nil), live...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].Data != want[j].Data {
			return want[i].Data < want[j].Data
		}
		return want[i].Rect.XL < want[j].Rect.XL
	})
	if got := sortedItems(tree); !itemsEqual(got, want) {
		t.Errorf("writer contents diverged from model (%d vs %d items)", len(got), len(want))
	}
}

// TestSnapshotSharesUntouchedNodes verifies that a snapshot is not a deep
// copy: after a single-item mutation, the writer and the snapshot still share
// the overwhelming majority of their nodes.
func TestSnapshotSharesUntouchedNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tree := MustNew(Options{PageSize: 1024})
	tree.InsertItems(randomItems(rng, 3000, 20))

	snap := tree.Snapshot()
	tree.Insert(geom.NewRect(1, 1, 2, 2), 999_999)

	snapNodes := map[*Node]bool{}
	snap.Walk(func(n *Node) { snapNodes[n] = true })
	shared, total := 0, 0
	tree.Walk(func(n *Node) {
		total++
		if snapNodes[n] {
			shared++
		}
	})
	if total == 0 || shared < total*3/4 {
		t.Fatalf("expected structural sharing after one insert: %d of %d nodes shared", shared, total)
	}
	// The copied spine must be private: root differs.
	if snap.Root() == tree.Root() {
		t.Fatalf("root still shared after mutation — copy-on-write did not trigger")
	}
	if snap.Root().ID != tree.Root().ID {
		t.Fatalf("COW copy changed the root's page identifier: %d -> %d", snap.Root().ID, tree.Root().ID)
	}
}

// TestSnapshotNoCopiesWithoutSnapshot pins that the COW machinery is inert
// until the first Snapshot: mutations never copy nodes, so the pre-snapshot
// hot paths (and their structural goldens) are untouched.
func TestSnapshotNoCopiesWithoutSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tree := MustNew(smallOpts())
	tree.InsertItems(randomItems(rng, 200, 30))
	before := map[*Node]bool{}
	tree.Walk(func(n *Node) { before[n] = true })
	root := tree.Root()
	// An insert that lands in an existing leaf must mutate in place.
	tree.Insert(geom.NewRect(5, 5, 6, 6), 777_777)
	if tree.Root() != root && before[root] {
		// A root split may replace the root node legitimately; only flag a
		// same-shape replacement, which would indicate a spurious copy.
		if tree.Root().ID == root.ID {
			t.Fatalf("root was copied without an active snapshot")
		}
	}
}

// TestSnapshotConcurrentReaders runs joins-like read traffic (window queries
// over a snapshot) from many goroutines while the writer keeps mutating and
// snapshotting.  Run under -race this pins that published snapshots are
// data-race free without any reader-side locking.
func TestSnapshotConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tree := MustNew(Options{PageSize: 1024})
	items := randomItems(rng, 2000, 25)
	tree.InsertItems(items)

	snap := tree.Snapshot()
	wantFP := treeFingerprint(snap)

	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				q := geom.NewRect(r.Float64()*900, r.Float64()*900, r.Float64()*900+60, r.Float64()*900+60)
				n := 0
				snap.Search(q, func(e Entry) bool { n++; return true })
				_ = snap.CatalogStats()
			}
		}(int64(100 + g))
	}

	nextID := int32(1 << 20)
	for round := 0; round < 20; round++ {
		fresh := randomItems(rng, 50, 25)
		for i := range fresh {
			fresh[i].Data = nextID
			nextID++
		}
		buf := NewInsertBuffer(tree, 0)
		for _, it := range fresh {
			buf.Stage(it.Rect, it.Data)
		}
		for _, it := range items[round*20 : round*20+20] {
			buf.StageDelete(it.Rect, it.Data)
		}
		buf.Flush()
		_ = tree.Snapshot()
	}
	close(stop)
	wg.Wait()

	if got := treeFingerprint(snap); got != wantFP {
		t.Fatalf("snapshot fingerprint changed under concurrent writer: %x -> %x", wantFP, got)
	}
}

// TestSnapshotQuickSequences drives randomized mixed op/snapshot sequences
// and verifies every snapshot's contents against the model recorded at its
// flip, and the writer against the final model.
func TestSnapshotQuickSequences(t *testing.T) {
	seqs := 12
	if testing.Short() {
		seqs = 4
	}
	for seq := 0; seq < seqs; seq++ {
		rng := rand.New(rand.NewSource(int64(7000 + seq)))
		tree := MustNew(smallOpts())
		model := map[int32]geom.Rect{}
		nextID := int32(1)

		type snap struct {
			tree  *Tree
			items []Item
		}
		var snaps []snap
		ops := 300
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(model) == 0: // insert
				rect := geom.NewRect(rng.Float64()*500, rng.Float64()*500,
					rng.Float64()*500+rng.Float64()*10, rng.Float64()*500+rng.Float64()*10)
				tree.Insert(rect, nextID)
				model[nextID] = rect
				nextID++
			case r < 8: // delete a random live item
				for id, rect := range model {
					if !tree.Delete(rect, id) {
						t.Fatalf("seq %d: delete of live id %d failed", seq, id)
					}
					delete(model, id)
					break
				}
			default: // snapshot
				s := tree.Snapshot()
				snaps = append(snaps, snap{tree: s, items: sortedItems(s)})
			}
		}
		for i, s := range snaps {
			if got := sortedItems(s.tree); !itemsEqual(got, s.items) {
				t.Fatalf("seq %d: snapshot %d contents changed", seq, i)
			}
		}
		if len(sortedItems(tree)) != len(model) {
			t.Fatalf("seq %d: writer holds %d items, model %d", seq, tree.Len(), len(model))
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("seq %d: invariants: %v", seq, err)
		}
	}
}
