package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// The golden shapes below were captured from the pre-arena implementation
// (per-Insert map[int]bool bookkeeping, sort.Slice over entry copies in the
// split machinery, per-slice allocations in the bulk loaders) on the
// deterministic datasets built below.  The build arena, the keyed sorts
// and the buffer-reusing, parallel bulk loader must reproduce every tree
// bit-identically: same height, same node count, same per-level hash over
// fan-outs, entry rectangles and object identifiers in depth-first order.
//
// The tree shape is sensitive to the exact permutation the (unstable) sorts
// produce, so these goldens pin that the sorts on keyed records (arena.go,
// keyedsort.go) replicate the sort.Slice calls, and then the sort.Sort
// sorters, they replaced.

// shape is a structural fingerprint of one tree.
type shape struct {
	Height int
	Nodes  int
	Size   int
	// Levels[l] is an order-sensitive FNV-1a hash over every node of level l
	// in depth-first order: fan-out, then each entry's rectangle bits and
	// object identifier.
	Levels []uint64
}

func fnv1a(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// fingerprint walks the tree and folds its complete structure into per-level
// hashes.  Two trees with equal fingerprints have identical node layouts,
// entry orders and MBRs at every level.
func fingerprint(t *Tree) shape {
	s := shape{Height: t.Height(), Size: t.Len(), Levels: make([]uint64, t.Height())}
	for i := range s.Levels {
		s.Levels[i] = 14695981039346656037
	}
	t.Walk(func(n *Node) {
		s.Nodes++
		h := s.Levels[n.Level]
		h = fnv1a(h, uint64(len(n.Entries)))
		for _, e := range n.Entries {
			h = fnv1a(h, math.Float64bits(e.Rect.XL))
			h = fnv1a(h, math.Float64bits(e.Rect.YL))
			h = fnv1a(h, math.Float64bits(e.Rect.XU))
			h = fnv1a(h, math.Float64bits(e.Rect.YU))
			h = fnv1a(h, uint64(uint32(e.Data)))
		}
		s.Levels[n.Level] = h
	})
	return s
}

func (s shape) String() string {
	return fmt.Sprintf("{Height: %d, Nodes: %d, Size: %d, Levels: %#v}", s.Height, s.Nodes, s.Size, s.Levels)
}

func (s shape) equal(o shape) bool {
	if s.Height != o.Height || s.Nodes != o.Nodes || s.Size != o.Size || len(s.Levels) != len(o.Levels) {
		return false
	}
	for i := range s.Levels {
		if s.Levels[i] != o.Levels[i] {
			return false
		}
	}
	return true
}

// goldenItems builds the deterministic dataset all golden scenarios share.
func goldenItems(n int, seed int64) []Item {
	return randomItems(rand.New(rand.NewSource(seed)), n, 0.01)
}

// The scenarios cover both variants and every construction path: plain
// insertion (with forced re-insertion for the R*-tree), a reinsert-heavy
// configuration, delete-then-insert (CondenseTree orphans re-inserted through
// the same overflow machinery), and the two bulk loaders.  The small page
// (8 entries) forces deep trees and frequent splits; the 1 KByte page
// exercises the candidate-limited ChooseSubtree (M > 32).  A linear-split
// variant does not exist in this codebase, so the golden set pins the R* and
// quadratic splits only.  The server-path shapes pin the build the daemons
// run: the Hilbert InsertBuffer at the served page size, staged deletes, and
// copy-on-write snapshots between rounds, at three rectangle sizes.  Their
// baselines come from the full ChooseSubtree scan, with no sibling or
// candidate skipped, so they pin that the scan's shortcuts change no tree.
type goldenShape struct {
	label string
	build func(testing.TB) *Tree
	want  shape
}

func smallPage() int { return 8 * storage.EntrySize }

// serverPathTree builds a tree the way spatialjoind's writer does: 4 KiB
// pages and an InsertBuffer of 256 (server.Config's default BatchCapacity),
// the 20 000-item ingest committed as one round, then 30 churn rounds of 100
// staged deletes of live items and 100 staged inserts.  Every round ends with
// a Snapshot, as the server's epoch flip does: it drops the leaf hint and
// makes every later mutation copy the nodes it touches.
func serverPathTree(tb testing.TB, side float64, seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	t := MustNew(Options{PageSize: storage.PageSize4K})
	b := NewInsertBuffer(t, 256)
	t.Snapshot() // the server publishes its first epoch over the empty tree
	live := randomItems(rng, 20000, side)
	for _, it := range live {
		b.Stage(it.Rect, it.Data)
	}
	b.Flush()
	t.Snapshot()
	next := int32(len(live))
	for round := 0; round < 30; round++ {
		for i := 0; i < 100; i++ {
			k := rng.Intn(len(live))
			b.StageDelete(live[k].Rect, live[k].Data)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, it := range randomItems(rng, 100, side) {
			it.Data = next
			next++
			b.Stage(it.Rect, it.Data)
			live = append(live, it)
		}
		b.Flush()
		t.Snapshot()
	}
	if b.DeleteMisses() != 0 {
		tb.Fatalf("side %g: %d staged deletes missed their entry", side, b.DeleteMisses())
	}
	return t
}

func goldenShapes() []goldenShape {
	return []goldenShape{
		{
			label: "server-path-4k-side0.004",
			build: func(tb testing.TB) *Tree { return serverPathTree(tb, 0.004, 30) },
			want:  shape{Height: 2, Nodes: 141, Size: 20000, Levels: []uint64{0xf9e5f4b427976f21, 0xfb74414b211c6489}},
		},
		{
			label: "server-path-4k-side0.02",
			build: func(tb testing.TB) *Tree { return serverPathTree(tb, 0.02, 31) },
			want:  shape{Height: 2, Nodes: 143, Size: 20000, Levels: []uint64{0xa3e85315ff04b580, 0xc994f58b88a3329f}},
		},
		{
			label: "server-path-4k-side0.1",
			build: func(tb testing.TB) *Tree { return serverPathTree(tb, 0.1, 32) },
			want:  shape{Height: 2, Nodes: 128, Size: 20000, Levels: []uint64{0xb8820d9633626476, 0x3b1fbbafb6f9fe33}},
		},
		{
			label: "rstar-insert-smallpage",
			build: func(tb testing.TB) *Tree {
				t := MustNew(Options{PageSize: smallPage()})
				t.InsertItems(goldenItems(3000, 11))
				return t
			},
			want: shape{Height: 5, Nodes: 632, Size: 3000, Levels: []uint64{0xee4588ec26fe4d62, 0x7debc68067ccb9d0, 0x11e4bab4c096bd76, 0x32ecdf89e954e9ed, 0xe51f3cfa3f46aba2}},
		},
		{
			label: "rstar-insert-1k",
			build: func(tb testing.TB) *Tree {
				t := MustNew(Options{PageSize: storage.PageSize1K})
				t.InsertItems(goldenItems(4000, 12))
				return t
			},
			want: shape{Height: 3, Nodes: 118, Size: 4000, Levels: []uint64{0x4663fbcf7f9df574, 0x1e77cd0a97f495e3, 0xbc3a03bcf87f3f38}},
		},
		{
			label: "rstar-delete-then-insert",
			build: func(tb testing.TB) *Tree {
				items := goldenItems(3000, 16)
				t := MustNew(Options{PageSize: storage.PageSize1K})
				t.InsertItems(items)
				for i := 0; i < 2000; i += 2 {
					if !t.Delete(items[i].Rect, items[i].Data) {
						tb.Fatalf("delete %d failed", i)
					}
				}
				t.InsertItems(goldenItems(800, 17))
				return t
			},
			want: shape{Height: 3, Nodes: 76, Size: 2800, Levels: []uint64{0x857ef8b152a0a379, 0x290f7cfc0630a200, 0xc9f533438b7b94b0}},
		},
		{
			label: "str-bulkload-1k",
			build: func(tb testing.TB) *Tree {
				t, err := BulkLoadSTR(Options{PageSize: storage.PageSize1K}, goldenItems(12000, 20))
				if err != nil {
					tb.Fatal(err)
				}
				return t
			},
			want: shape{Height: 3, Nodes: 274, Size: 12000, Levels: []uint64{0xf68e05b824a7a26a, 0xd8feac318c4dedc1, 0x9848747c72045182}},
		},
		{
			label: "str-bulkload-smallpage",
			build: func(tb testing.TB) *Tree {
				t, err := BulkLoadSTR(Options{PageSize: smallPage()}, goldenItems(3000, 21))
				if err != nil {
					tb.Fatal(err)
				}
				return t
			},
			want: shape{Height: 5, Nodes: 503, Size: 3000, Levels: []uint64{0xb556dbd8307af786, 0x1ba5e46f8f21a0eb, 0x24dbe6072610d9b0, 0x5cdf77232476f0ca, 0x17528adf75306981}},
		},
	}
}

// TestStructuralGolden asserts that every construction path produces trees
// bit-identical to the pre-arena implementation.
func TestStructuralGolden(t *testing.T) {
	for _, g := range goldenShapes() {
		g := g
		t.Run(g.label, func(t *testing.T) {
			tr := g.build(t)
			got := fingerprint(tr)
			if !got.equal(g.want) {
				t.Errorf("tree shape drifted from the pre-arena baseline:\n got  %v\n want %v", got, g.want)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Errorf("invalid tree: %v", err)
			}
		})
	}
}

// TestConstructionIsDeterministic asserts that building the same tree twice
// yields identical shapes: arena reuse must not leak state between builds.
func TestConstructionIsDeterministic(t *testing.T) {
	for _, g := range goldenShapes() {
		g := g
		t.Run(g.label, func(t *testing.T) {
			a := fingerprint(g.build(t))
			b := fingerprint(g.build(t))
			if !a.equal(b) {
				t.Errorf("two identical builds disagree:\n first  %v\n second %v", a, b)
			}
		})
	}
}
