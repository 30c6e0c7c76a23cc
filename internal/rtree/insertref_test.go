package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// The reference insert: the R*-tree insertion as it stood before the
// sibling window, the union-grown parent rectangle and the sorts on keys.
// Every directory rectangle on the path is recomputed as the child's MBR,
// every candidate's overlap enlargement is the full sum over its siblings
// (refChooseSubtree), and every sort is a sort.Sort or sort.Stable over a
// sort.Interface.  FuzzInsertMatchesReference runs the same operations
// through Tree and through this, and the trees must agree bit for bit.

// refInsert is Tree.Insert through the reference path.
func (t *Tree) refInsert(rect geom.Rect, data int32) {
	t.size++
	t.muts++
	t.build.begin()
	t.refInsertEntry(Entry{Rect: rect, Data: data}, 0)
	for {
		p, ok := t.build.popPending()
		if !ok {
			break
		}
		t.refInsertEntry(p.entry, p.level)
	}
}

func (t *Tree) refInsertEntry(e Entry, level int) {
	root := t.ownRoot()
	if level > root.Level {
		level = root.Level
	}
	split, ok := t.refInsertRec(root, e, level)
	if !ok {
		return
	}
	oldRoot := t.root
	newRoot := t.newNode(oldRoot.Level + 1)
	newRoot.setEntries(append(make([]Entry, 0, t.maxEnt+1),
		Entry{Rect: oldRoot.MBR(), Child: oldRoot},
		split,
	))
	t.root = newRoot
	t.height++
}

func (t *Tree) refInsertRec(n *Node, e Entry, level int) (Entry, bool) {
	if n.Level == level {
		n.setEntries(append(n.Entries, e))
		if n.Level == 0 {
			t.build.lastLeaf = n
		}
	} else {
		var idx int
		if n.Level > 1 {
			idx = leastEnlargement(n.Entries, e.Rect)
		} else {
			idx = refChooseSubtree(n.Entries, e.Rect)
		}
		child := t.ownChild(n, idx)
		split, ok := t.refInsertRec(child, e, level)
		n.setRect(idx, child.MBR())
		if ok {
			n.setEntries(append(n.Entries, split))
		}
	}
	if len(n.Entries) > t.maxEnt {
		if n != t.root && !t.build.wasReinserted(n.Level) {
			t.build.markReinserted(n.Level)
			if t.refForcedReinsert(n) {
				return Entry{}, false
			}
		}
		sibling := t.newNode(n.Level)
		sibling.setEntries(t.refRStarSplit(n))
		return Entry{Rect: sibling.MBR(), Child: sibling}, true
	}
	return Entry{}, false
}

func (t *Tree) refForcedReinsert(n *Node) bool {
	p := int(float64(len(n.Entries)) * DefaultReinsertFraction)
	if p < 1 {
		p = 1
	}
	if p > len(n.Entries)-t.minEnt {
		p = len(n.Entries) - t.minEnt
	}
	if p < 1 {
		return false
	}
	center := n.MBR().Center()
	dists := make([]refDistEntry, 0, len(n.Entries))
	for _, e := range n.Entries {
		dists = append(dists, refDistEntry{dist: e.Rect.Center().Distance(center), e: e})
	}
	sort.Sort(refDistSorter(dists))
	removed := dists[:p]
	kept := n.Entries[:0]
	for _, d := range dists[p:] {
		kept = append(kept, d.e)
	}
	n.setEntries(kept)
	for i := len(removed) - 1; i >= 0; i-- {
		t.build.pushPending(removed[i].e, n.Level)
	}
	return true
}

func (t *Tree) refRStarSplit(n *Node) []Entry {
	m := t.minEnt
	var sorted [2][2][]Entry
	var sums [2]float64
	for axis := 0; axis < 2; axis++ {
		for corner := 0; corner < 2; corner++ {
			s := append([]Entry(nil), n.Entries...)
			sort.Sort(&refAxisSorter{e: s, axis: axis, upper: corner == 1})
			sorted[axis][corner] = s
			sums[axis] += t.marginSum(s, m)
		}
	}
	axis := 1
	if sums[0] <= sums[1] {
		axis = 0
	}
	best := t.chooseSplitIndex(sorted[axis], m)
	s := sorted[axis][best.sorting]
	return t.keepFirstGroup(n, s[:best.k], s[best.k:])
}

// refDelete is Tree.Delete with its re-insertions through the reference
// path.
func (t *Tree) refDelete(rect geom.Rect, data int32) bool {
	path, found := findEntry(t.root, rect, data, nil)
	if !found {
		return false
	}
	var orphans []pendingEntry
	t.removeAt(t.ownRoot(), path, &orphans)
	t.size--
	t.muts++
	t.build.begin()
	for _, o := range orphans {
		t.refInsertEntry(o.entry, o.level)
		for {
			p, ok := t.build.popPending()
			if !ok {
				break
			}
			t.refInsertEntry(p.entry, p.level)
		}
	}
	for !t.root.IsLeaf() && len(t.root.Entries) == 1 {
		t.root = t.root.Entries[0].Child
		t.height--
	}
	return true
}

// refBuffer is InsertBuffer with a sort.Stable flush and the reference
// insert behind its leaf hint.
type refBuffer struct {
	t         *Tree
	hintFill  int
	ops       []stagedOp
	hint      *Node
	hintMBR   geom.Rect
	hintEpoch int64
}

func newRefBuffer(t *Tree) *refBuffer {
	return &refBuffer{t: t, hintFill: NewInsertBuffer(t, 0).hintFill}
}

func (b *refBuffer) flush() {
	if len(b.ops) == 0 {
		return
	}
	world := b.ops[0].item.Rect
	for _, op := range b.ops[1:] {
		world = world.Union(op.item.Rect)
	}
	if bounds, ok := b.t.Bounds(); ok {
		world = world.Union(bounds)
	}
	s := refHilbertSorter{}
	for i, op := range b.ops {
		s.keys = append(s.keys, zorder.HilbertKey(op.item.Rect.Center(), world))
		s.order = append(s.order, int32(i))
	}
	sort.Stable(&s)
	t := b.t
	for _, i := range s.order {
		it := b.ops[i].item
		if b.ops[i].del {
			t.refDelete(it.Rect, it.Data)
			continue
		}
		if b.hint != nil && b.hintEpoch == t.muts && b.hint.Level == 0 &&
			len(b.hint.Entries) > 0 && len(b.hint.Entries) < b.hintFill &&
			b.hintMBR.Contains(it.Rect) && sameBits(b.hintMBR.Union(it.Rect), b.hintMBR) {
			b.hint.setEntries(append(b.hint.Entries, Entry{Rect: it.Rect, Data: it.Data}))
			t.size++
			t.muts++
			b.hintEpoch = t.muts
			continue
		}
		t.refInsert(it.Rect, it.Data)
		b.hint = t.build.lastLeaf
		if b.hint != nil {
			b.hintMBR = b.hint.MBR()
		}
		b.hintEpoch = t.muts
	}
	b.ops = b.ops[:0]
}

// The sort.Interface sorters the construction sorts used before they moved
// to keyed records.

// refCandSorter orders candidate indexes by ascending area enlargement.
type refCandSorter struct {
	idx []int
	enl []float64
}

func (s *refCandSorter) Len() int           { return len(s.idx) }
func (s *refCandSorter) Swap(i, j int)      { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *refCandSorter) Less(i, j int) bool { return s.enl[s.idx[i]] < s.enl[s.idx[j]] }

// refDistEntry pairs an entry with the distance of its centre from the node
// centre; refDistSorter orders them by decreasing distance.
type refDistEntry struct {
	dist float64
	e    Entry
}

type refDistSorter []refDistEntry

func (s refDistSorter) Len() int           { return len(s) }
func (s refDistSorter) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s refDistSorter) Less(i, j int) bool { return s[i].dist > s[j].dist }

// refAxisSorter orders entries by the lower or upper corner along one axis.
type refAxisSorter struct {
	e     []Entry
	axis  int
	upper bool
}

func (s *refAxisSorter) Len() int      { return len(s.e) }
func (s *refAxisSorter) Swap(i, j int) { s.e[i], s.e[j] = s.e[j], s.e[i] }
func (s *refAxisSorter) Less(i, j int) bool {
	if s.axis == 0 {
		if s.upper {
			return s.e[i].Rect.XU < s.e[j].Rect.XU
		}
		return s.e[i].Rect.XL < s.e[j].Rect.XL
	}
	if s.upper {
		return s.e[i].Rect.YU < s.e[j].Rect.YU
	}
	return s.e[i].Rect.YL < s.e[j].Rect.YL
}

// refHilbertSorter orders staging indexes by ascending Hilbert key.
type refHilbertSorter struct {
	order []int32
	keys  []uint64
}

func (s *refHilbertSorter) Len() int      { return len(s.order) }
func (s *refHilbertSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *refHilbertSorter) Less(i, j int) bool {
	return s.keys[s.order[i]] < s.keys[s.order[j]]
}

// refCenterSorter orders entries by the x (axis 0) or y (axis 1) coordinate
// of their centres: the STR bulk load's slab and node sorts.
type refCenterSorter struct {
	e    []Entry
	axis int
}

func (s *refCenterSorter) Len() int      { return len(s.e) }
func (s *refCenterSorter) Swap(i, j int) { s.e[i], s.e[j] = s.e[j], s.e[i] }
func (s *refCenterSorter) Less(i, j int) bool {
	if s.axis == 0 {
		return s.e[i].Rect.Center().X < s.e[j].Rect.Center().X
	}
	return s.e[i].Rect.Center().Y < s.e[j].Rect.Center().Y
}

// refXLSorter orders entry indexes by lower x-corner and counts its Less
// calls: under sort.Stable, a page's xl-order and its SortComparisons.
type refXLSorter struct {
	perm    []int32
	entries []Entry
	comps   int64
}

func (s *refXLSorter) Len() int { return len(s.perm) }

func (s *refXLSorter) Less(i, j int) bool {
	s.comps++
	return s.entries[s.perm[i]].Rect.XL < s.entries[s.perm[j]].Rect.XL
}

func (s *refXLSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }

// FuzzInsertMatchesReference runs one stream of inserts, deletes, staged
// inserts and deletes, flushes and snapshots through Tree and through the
// reference insert, and requires the two trees to agree after every
// operation: equal per-level structural hashes and page identifiers, equal
// delete outcomes, and CheckInvariants nil on both.  The rectangles lie on a
// coarse grid (shared edges, duplicates, zero widths), mirrored so signed
// zeros occur, at a scale the seed picks: 1, one whose areas are subnormal,
// or one whose areas overflow and whose enlargements are NaN.  The seed also
// picks the page capacity (4 to 40 entries, so leaf-parents past the 32
// ChooseSubtree candidates occur).
func FuzzInsertMatchesReference(f *testing.F) {
	f.Add(int64(0), []byte{0, 6, 12, 1, 4, 2, 3, 4, 5, 0, 2})
	f.Add(int64(3), bytes.Repeat([]byte{90, 90, 90, 7, 4, 5, 2, 3, 4}, 12))
	f.Add(int64(7), bytes.Repeat([]byte{91, 1, 1, 2, 4, 8, 5}, 20))
	f.Add(int64(9), []byte{24, 25, 26, 27, 28, 29, 30, 31, 32, 33})
	f.Add(int64(14), bytes.Repeat([]byte{0, 1, 4, 2, 3, 4, 5}, 16))
	f.Add(int64(1), bytes.Repeat([]byte{90, 2, 84, 4}, 30))
	f.Add(int64(5), bytes.Repeat([]byte{90, 2, 8, 4, 3, 0}, 30))
	f.Add(int64(2), bytes.Repeat([]byte{90, 90, 2, 2, 4}, 30))
	// A staged -0 corner inside a hinted leaf's +0 one: without the leaf
	// hint's zero-sign guard the flush leaves a +0 parent over a -0 leaf.
	f.Add(int64(23), []byte("2a0000122021X0"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		u := uint64(seed)
		opts := Options{PageSize: []int{4, 8, 12, 40}[u%4] * storage.EntrySize}
		scale := []float64{1, 1e-160, 1e300}[u/4%3]
		cells := 2 + int(u/12%7)
		rng := rand.New(rand.NewSource(seed))
		draw := func() geom.Rect {
			g := gridRect(rng, cells)
			if rng.Intn(2) == 0 {
				g.XL, g.XU = -g.XU, -g.XL
			}
			return geom.Rect{XL: g.XL * scale, YL: g.YL * scale, XU: g.XU * scale, YU: g.YU * scale}
		}
		tr, ref := MustNew(opts), MustNew(opts)
		buf, rbuf := NewInsertBuffer(tr, math.MaxInt), newRefBuffer(ref)
		var live []Item
		next := int32(0)
		pick := func() Item {
			if len(live) == 0 || rng.Intn(8) == 0 {
				return Item{Rect: draw(), Data: -1} // not in either tree
			}
			j := rng.Intn(len(live))
			it := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			return it
		}
		check := func(i int, op string) {
			t.Helper()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%s): tree: %v", i, op, err)
			}
			if err := ref.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%s): reference: %v", i, op, err)
			}
			if got, want := fingerprint(tr), fingerprint(ref); !got.equal(want) || tr.nextID != ref.nextID {
				t.Fatalf("op %d (%s): tree %v (next page %d), reference %v (next page %d)", i, op, got, tr.nextID, want, ref.nextID)
			}
		}
		for i, op := range ops {
			burst := 1 + int(op/6)%16
			switch op % 6 {
			case 0:
				for range burst {
					it := Item{Rect: draw(), Data: next}
					next++
					tr.Insert(it.Rect, it.Data)
					ref.refInsert(it.Rect, it.Data)
					live = append(live, it)
				}
				check(i, "insert")
			case 1:
				for range burst {
					it := Item{Rect: draw(), Data: next}
					next++
					buf.Stage(it.Rect, it.Data)
					rbuf.ops = append(rbuf.ops, stagedOp{item: it})
					live = append(live, it)
				}
			case 2:
				it := pick()
				if got, want := tr.Delete(it.Rect, it.Data), ref.refDelete(it.Rect, it.Data); got != want {
					t.Fatalf("op %d: delete of %v found %v, the reference %v", i, it, got, want)
				}
				check(i, "delete")
			case 3:
				it := pick()
				buf.StageDelete(it.Rect, it.Data)
				rbuf.ops = append(rbuf.ops, stagedOp{item: it, del: true})
			case 4:
				buf.Flush()
				rbuf.flush()
				check(i, "flush")
			default:
				tr.Snapshot()
				ref.Snapshot()
			}
		}
		buf.Flush()
		rbuf.flush()
		check(len(ops), "final flush")
	})
}
