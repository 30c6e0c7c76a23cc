package rtree

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/storage"
)

// BulkLoadFill is the target node fill used by the bulk loader.  Packing
// nodes completely full makes every subsequent insertion split; 90% leaves
// headroom while still producing far fewer pages than dynamic insertion.
const BulkLoadFill = 0.90

// bulkScratch bundles what one bulk load reuses across all levels: the
// items (the leaf level's entries, read in place), one entry buffer (each
// directory level's entries, overwritten in place by the next level's — a
// level's nodes hold copies of its entries, so the buffer is free once they
// are packed), one buffer of sort records (the x-sort's, which each slab
// re-keys in place for its y-sort) and one node buffer.  A bulk load
// therefore performs a constant number of scratch allocations regardless of
// depth or slab count; the remaining allocations are the nodes, their entry
// slices and their xl-orders, which the tree keeps.
type bulkScratch struct {
	items   []Item // nil once the leaves are packed
	entries []Entry
	recs    []keyed
	nodes   []*Node
	procs   int // goroutines the load may run on, the caller's among them
}

// rect returns the rectangle of entry i of the level being packed.
func (b *bulkScratch) rect(i int32) geom.Rect {
	if b.items != nil {
		return b.items[i].Rect
	}
	return b.entries[i].Rect
}

// entry returns entry i of the level being packed.
func (b *bulkScratch) entry(i int32) Entry {
	if b.items != nil {
		return Entry{Rect: b.items[i].Rect, Data: b.items[i].Data}
	}
	return b.entries[i]
}

// nextLevel replaces the level just packed with directory entries over its
// nodes and returns their number.
func (b *bulkScratch) nextLevel() int {
	b.items = nil
	b.entries = slices.Grow(b.entries[:0], len(b.nodes))
	for _, n := range b.nodes {
		b.entries = append(b.entries, Entry{Rect: n.MBR(), Child: n})
	}
	return len(b.entries)
}

// BulkLoadSTR builds a tree from the given items with the Sort-Tile-Recursive
// packing algorithm: items are sorted by the x-coordinate of their centres,
// cut into vertical slabs, each slab is sorted by y and cut into nodes.
// The same procedure packs the directory levels.
//
// The returned tree is ready (Tree.Ready): every node holds its xl-order
// (Node.XLOrder), so no join over the tree sorts a page.  The load runs on
// min(GOMAXPROCS, slabs) goroutines, the caller's among them, all of which
// end before it returns: the x-sort hands subranges to spare goroutines,
// and the slabs' y-sorts, their nodes and the nodes' orders are built in
// parallel, level by level.  The tree, its page identifiers and its orders
// are the same bit for bit at any GOMAXPROCS: every sort makes sort.Sort's
// moves (keyedsort.go), and every slab owns its records, its nodes and
// their identifiers.
//
// Bulk loading is an extension beyond the paper (the paper builds its trees
// by dynamic insertion); it is provided because packed trees are a common
// baseline and the experiment harness uses it to build very large trees
// quickly.  The resulting tree answers queries and participates in joins
// exactly like a dynamically built one.  Every item's rectangle must be well
// formed, as for Tree.Insert; the loaders do not check it.
func BulkLoadSTR(opts Options, items []Item) (*Tree, error) {
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	b := bulkScratch{items: items, procs: runtime.GOMAXPROCS(0)}
	perNode := targetFill(t.maxEnt)

	for level, n := 0, len(items); ; level++ {
		t.packSTR(&b, n, level, perNode)
		if len(b.nodes) == 1 {
			t.root = b.nodes[0]
			t.height = level + 1
			t.size = len(items)
			t.makeReady()
			return t, nil
		}
		n = b.nextLevel()
	}
}

// targetFill returns the number of entries packed per node.
func targetFill(capacity int) int {
	per := int(float64(capacity) * BulkLoadFill)
	if per < 2 {
		per = 2
	}
	if per > capacity {
		per = capacity
	}
	return per
}

// packSTR packs the n entries of the level being packed into the nodes of
// the given level using Sort-Tile-Recursive tiling, leaving them in b.nodes
// with their xl-orders built.  Slab s holds the sorted positions
// [s*perSlab, (s+1)*perSlab) and becomes nodes [s*slabNodes,
// (s+1)*slabNodes), whose page identifiers follow t.nextID in that order:
// the order a sequential packer would allocate them in.
func (t *Tree) packSTR(b *bulkScratch, n, level, perNode int) {
	nodeCount := (n + perNode - 1) / perNode
	slabNodes := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlab := slabNodes * perNode
	slabs := (n + perSlab - 1) / perSlab

	recs := slices.Grow(b.recs[:0], n)
	for i := range int32(n) {
		recs = append(recs, keyed{key: b.rect(i).Center().X, idx: i})
	}
	b.recs = recs
	sortKeyed(recs, b.procs)

	b.nodes = slices.Grow(b.nodes[:0], nodeCount)[:nodeCount]
	firstID := t.nextID
	t.nextID += storage.PageID(nodeCount)
	pack := func(s int) {
		slab := recs[s*perSlab : min(n, (s+1)*perSlab)]
		for j := range slab {
			slab[j].key = b.rect(slab[j].idx).Center().Y
		}
		sortKeyed(slab, 1)
		first := s * slabNodes
		nodes := b.nodes[first : first+(len(slab)+perNode-1)/perNode]
		for k := range nodes {
			run := slab[k*perNode : min(len(slab), (k+1)*perNode)]
			node := t.nodeWithID(firstID+storage.PageID(first+k+1), level)
			node.Entries = make([]Entry, len(run))
			for j, r := range run {
				node.Entries[j] = b.entry(r.idx)
			}
			nodes[k] = node
		}
		rebalanceTail(t, nodes)
		for _, node := range nodes {
			node.xlOrder = buildXLOrder(node.Entries)
		}
	}
	forEachSlab(b.procs, slabs, pack)

	// The last slab may hold a single underfilled node, which borrows from
	// the slab before it; the two lose their orders, which BulkLoadSTR's
	// makeReady rebuilds.
	rebalanceTail(t, b.nodes)
}

// forEachSlab runs pack on every slab index below slabs, on min(procs,
// slabs) goroutines (the caller's among them), and returns once all are
// done.  Which goroutine packs which slab does not matter: pack writes only
// what belongs to its slab.
func forEachSlab(procs, slabs int, pack func(s int)) {
	var next atomic.Int64
	work := func() {
		for s := int(next.Add(1) - 1); s < slabs; s = int(next.Add(1) - 1) {
			pack(s)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(procs, slabs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// rebalanceTail fixes up a possible underfilled final node by borrowing
// entries from its predecessor so that both satisfy the R-tree fill
// invariant.
func rebalanceTail(t *Tree, nodes []*Node) {
	if len(nodes) < 2 {
		return
	}
	last := nodes[len(nodes)-1]
	prev := nodes[len(nodes)-2]
	if deficit := t.minEnt - len(last.Entries); deficit > 0 && len(prev.Entries)-deficit >= t.minEnt {
		cut := len(prev.Entries) - deficit
		moved := append([]Entry(nil), prev.Entries[cut:]...)
		prev.setEntries(prev.Entries[:cut])
		last.setEntries(append(moved, last.Entries...))
	}
}

// Build constructs a tree from items either by repeated insertion (the
// paper's method) or by STR bulk loading when bulk is true, ready to join.
// It is a convenience wrapper used by the experiment harness and examples.
func Build(opts Options, items []Item, bulk bool) (*Tree, error) {
	if bulk {
		return BulkLoadSTR(opts, items)
	}
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	t.InsertItems(items)
	t.makeReady()
	return t, nil
}
