package rtree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

func countNodes(tr *Tree) int {
	n := 0
	tr.Walk(func(*Node) { n++ })
	return n
}

func sortedItems(tr *Tree) []Item {
	items := tr.Items()
	sort.Slice(items, func(i, j int) bool { return items[i].Data < items[j].Data })
	return items
}

// quantize rounds a rectangle through the float32 precision of the on-disk
// entry layout, the way one save/load round trip does.
func quantize(items []Item) []Item {
	out := make([]Item, len(items))
	for i, it := range items {
		out[i] = Item{Data: it.Data, Rect: geom.Rect{
			XL: float64(float32(it.Rect.XL)), YL: float64(float32(it.Rect.YL)),
			XU: float64(float32(it.Rect.XU)), YU: float64(float32(it.Rect.YU)),
		}}
	}
	return out
}

// memPager opens an empty pager over a fresh in-memory file system, closed
// when the test ends.
func memPager(t *testing.T, pageSize int) *storage.Pager {
	t.Helper()
	p, err := storage.OpenPager(storage.NewMemVFS(), "tree.db", pageSize, storage.PagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	})
	return p
}

func newTestStore(t *testing.T, items []Item) (*TreeStore, *storage.MemVFS) {
	t.Helper()
	fs := storage.NewMemVFS()
	p, err := storage.OpenPager(fs, "tree.db", storage.PageSize1K, storage.PagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	tr.InsertItems(items)
	s, err := NewTreeStore(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	return s, fs
}

func TestTreeStoreIncrementalCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randomItems(rng, 400, 0.01)
	s, _ := newTestStore(t, items)
	defer s.Pager().Close()
	nodes := countNodes(s.Tree())

	// First commit writes every node.
	st, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesWritten != nodes || st.PagesClean != 0 || st.PagesFreed != 0 {
		t.Fatalf("first commit: %+v, want %d pages written", st, nodes)
	}
	if s.Pager().Root() != st.Root || st.Root == storage.InvalidPage {
		t.Fatalf("root not sealed: %+v, pager root %d", st, s.Pager().Root())
	}

	// Committing an unchanged tree writes nothing.
	st, err = s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesWritten != 0 || st.PagesClean != nodes {
		t.Fatalf("no-op commit rewrote pages: %+v", st)
	}

	// A single insert dirties only the leaf path, not the whole tree.
	s.Tree().Insert(items[0].Rect, 9999)
	st, err = s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesWritten == 0 || st.PagesWritten >= nodes/2 {
		t.Fatalf("single insert rewrote %d of %d pages", st.PagesWritten, nodes)
	}
	if st.PagesClean == 0 {
		t.Fatalf("single insert left no page clean: %+v", st)
	}

	// Deleting most items dissolves nodes; their pages are freed and reused.
	for _, it := range items[:300] {
		if !s.Tree().Delete(it.Rect, it.Data) {
			t.Fatalf("delete of item %d failed", it.Data)
		}
	}
	before := s.Pager().Stats()
	st, err = s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesFreed == 0 {
		t.Fatalf("mass delete freed no pages: %+v", st)
	}
	s.Tree().InsertItems(items[:300])
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	after := s.Pager().Stats()
	if after.ReuseAllocations == before.ReuseAllocations {
		t.Error("re-growth allocated no page from the free list")
	}
}

func TestOpenTreeStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	items := randomItems(rng, 350, 0.01)
	s, fs := newTestStore(t, items)
	want := quantize(sortedItems(s.Tree()))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pager().Close(); err != nil {
		t.Fatal(err)
	}

	p, err := storage.OpenPager(fs, "tree.db", storage.PageSize1K, storage.PagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s2, err := OpenTreeStore(p, Options{PageSize: storage.PageSize1K})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := sortedItems(s2.Tree())
	if len(got) != len(want) {
		t.Fatalf("reloaded %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// The rebound diff state matches the disk: nothing is rewritten.
	st, err := s2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesWritten != 0 {
		t.Fatalf("commit after reopen rewrote %d pages", st.PagesWritten)
	}
	// And ReadPage serves every committed node.
	var readErr error
	s2.Tree().Walk(func(n *Node) {
		if _, err := s2.ReadPage(n.ID, nil); err != nil && readErr == nil {
			readErr = err
		}
	})
	if readErr != nil {
		t.Fatalf("ReadPage of a committed node: %v", readErr)
	}
}

func TestTreeStoreErrors(t *testing.T) {
	fs := storage.NewMemVFS()
	p, err := storage.OpenPager(fs, "e.db", storage.PageSize1K, storage.PagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := NewTreeStore(MustNew(Options{PageSize: storage.PageSize2K}), p); err == nil {
		t.Error("page-size mismatch accepted")
	}
	if _, err := OpenTreeStore(p, Options{PageSize: storage.PageSize1K}); err == nil {
		t.Error("OpenTreeStore on an empty pager succeeded")
	}
	s, err := NewTreeStore(MustNew(Options{PageSize: storage.PageSize1K}), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage(42, nil); !errors.Is(err, storage.ErrUnknownPage) {
		t.Errorf("ReadPage of uncommitted node: %v", err)
	}
}

// TestLoadRejectsCorruptPageGraphs hand-crafts hostile page graphs in a
// pager and checks that OpenTreeStore refuses each with a wrapped
// ErrCorruptPage (or ErrUnknownPage) instead of crashing or walking forever:
// a self-cycle, a two-node cycle, a shared subtree (diamond), a child whose
// stored level breaks the level discipline, and a dangling child reference.
func TestLoadRejectsCorruptPageGraphs(t *testing.T) {
	const ps = storage.PageSize1K
	writeNode := func(p *storage.Pager, id storage.PageID, dn storage.DiskNode) {
		buf, err := storage.EncodeNode(dn, ps)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	entry := func(ref storage.PageID) storage.DiskEntry {
		return storage.DiskEntry{Ref: uint32(ref)}
	}
	// open commits the hand-written pages under root and reopens them.
	open := func(p *storage.Pager, root storage.PageID) error {
		p.SetRoot(root)
		if _, err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		_, err := OpenTreeStore(p, Options{PageSize: ps})
		return err
	}

	t.Run("self-cycle", func(t *testing.T) {
		p := memPager(t, ps)
		root := p.Allocate()
		writeNode(p, root, storage.DiskNode{Level: 1, Entries: []storage.DiskEntry{entry(root)}})
		if err := open(p, root); !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("OpenTreeStore: %v", err)
		}
	})
	t.Run("two-node-cycle", func(t *testing.T) {
		p := memPager(t, ps)
		a, b := p.Allocate(), p.Allocate()
		writeNode(p, a, storage.DiskNode{Level: 2, Entries: []storage.DiskEntry{entry(b)}})
		writeNode(p, b, storage.DiskNode{Level: 1, Entries: []storage.DiskEntry{entry(a)}})
		if err := open(p, a); !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("OpenTreeStore: %v", err)
		}
	})
	t.Run("shared-subtree", func(t *testing.T) {
		p := memPager(t, ps)
		root, a, b, leaf := p.Allocate(), p.Allocate(), p.Allocate(), p.Allocate()
		writeNode(p, leaf, storage.DiskNode{Level: 0, Entries: []storage.DiskEntry{entry(7)}})
		writeNode(p, a, storage.DiskNode{Level: 1, Entries: []storage.DiskEntry{entry(leaf)}})
		writeNode(p, b, storage.DiskNode{Level: 1, Entries: []storage.DiskEntry{entry(leaf)}})
		writeNode(p, root, storage.DiskNode{Level: 2, Entries: []storage.DiskEntry{entry(a), entry(b)}})
		if err := open(p, root); !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("OpenTreeStore: %v", err)
		}
	})
	t.Run("level-discipline", func(t *testing.T) {
		p := memPager(t, ps)
		root, child := p.Allocate(), p.Allocate()
		// The child claims level 3 under a level-2 root: a level loop that a
		// depth-unaware loader would descend into forever.
		writeNode(p, child, storage.DiskNode{Level: 3, Entries: []storage.DiskEntry{entry(child)}})
		writeNode(p, root, storage.DiskNode{Level: 2, Entries: []storage.DiskEntry{entry(child)}})
		if err := open(p, root); !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("OpenTreeStore: %v", err)
		}
	})
	t.Run("dangling-child", func(t *testing.T) {
		p := memPager(t, ps)
		root := p.Allocate()
		writeNode(p, root, storage.DiskNode{Level: 1, Entries: []storage.DiskEntry{entry(99)}})
		if err := open(p, root); !errors.Is(err, storage.ErrUnknownPage) {
			t.Fatalf("OpenTreeStore: %v", err)
		}
	})
}
