package rtree

import (
	"math"
	"sort"
)

// BulkLoadFill is the target node fill used by the bulk loader.  Packing
// nodes completely full makes every subsequent insertion split; 90% leaves
// headroom while still producing far fewer pages than dynamic insertion.
const BulkLoadFill = 0.90

// bulkScratch bundles the buffers one bulk load reuses across all levels:
// one entry buffer (the leaves' data entries, overwritten in place by each
// level's directory entries — node i consumes entries at positions >= i, so
// the prefix is free to reuse), one node buffer, and the preallocated
// sorters.  A bulk load therefore performs a constant number of scratch
// allocations regardless of depth or slice count; the remaining allocations
// are the nodes themselves and their entry slices, which the tree keeps.
type bulkScratch struct {
	entries []Entry
	nodes   []*Node
	byX     centerXSorter
	byY     centerYSorter
}

// fillEntries loads the items into the scratch entry buffer.
func (b *bulkScratch) fillEntries(items []Item) []Entry {
	b.entries = make([]Entry, len(items))
	for i, it := range items {
		b.entries[i] = Entry{Rect: it.Rect, Data: it.Data}
	}
	return b.entries
}

// nextLevel overwrites the buffer prefix with directory entries over the
// nodes just packed and returns the shortened buffer.
func (b *bulkScratch) nextLevel() []Entry {
	for i, n := range b.nodes {
		b.entries[i] = Entry{Rect: n.MBR(), Child: n}
	}
	b.entries = b.entries[:len(b.nodes)]
	return b.entries
}

// centerXSorter orders entries by the x-coordinate of their centres.
type centerXSorter struct{ e []Entry }

func (s *centerXSorter) Len() int      { return len(s.e) }
func (s *centerXSorter) Swap(i, j int) { s.e[i], s.e[j] = s.e[j], s.e[i] }
func (s *centerXSorter) Less(i, j int) bool {
	return s.e[i].Rect.Center().X < s.e[j].Rect.Center().X
}

// centerYSorter orders entries by the y-coordinate of their centres.
type centerYSorter struct{ e []Entry }

func (s *centerYSorter) Len() int      { return len(s.e) }
func (s *centerYSorter) Swap(i, j int) { s.e[i], s.e[j] = s.e[j], s.e[i] }
func (s *centerYSorter) Less(i, j int) bool {
	return s.e[i].Rect.Center().Y < s.e[j].Rect.Center().Y
}

// BulkLoadSTR builds a tree from the given items with the Sort-Tile-Recursive
// packing algorithm: items are sorted by the x-coordinate of their centres,
// cut into vertical slices, each slice is sorted by y and cut into nodes.
// The same procedure packs the directory levels.
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
	var b bulkScratch
	entries := b.fillEntries(items)
	perNode := targetFill(t.maxEnt)

	level := 0
	for {
		b.nodes = t.packSTR(b.nodes[:0], &b, entries, level, perNode)
		if len(b.nodes) == 1 {
			t.root = b.nodes[0]
			t.height = level + 1
			t.size = len(items)
			return t, nil
		}
		entries = b.nextLevel()
		level++
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

// packSTR packs entries into nodes of the given level using Sort-Tile-
// Recursive tiling, appending the nodes to dst.  Entries are sorted in
// place; callers pass the reusable level buffer.
func (t *Tree) packSTR(dst []*Node, b *bulkScratch, entries []Entry, level, perNode int) []*Node {
	n := len(entries)
	nodeCount := (n + perNode - 1) / perNode
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlice := sliceCount * perNode

	b.byX.e = entries
	sort.Sort(&b.byX)
	b.byX.e = nil

	for start := 0; start < n; start += perSlice {
		end := start + perSlice
		if end > n {
			end = n
		}
		slice := entries[start:end]
		b.byY.e = slice
		sort.Sort(&b.byY)
		b.byY.e = nil
		dst = t.packRuns(dst, slice, level, perNode)
	}
	rebalanceTail(t, dst)
	return dst
}

// rebalanceTail fixes up a possible underfilled final node produced by the
// last (short) slice by borrowing entries from its predecessor.
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

// packRuns packs consecutive runs of entries into nodes of the given level,
// appending them to dst.  If the final run would fall below the minimum fill
// m, entries are shifted from the previous node so that both satisfy the
// R-tree fill invariant (considering only the nodes packed by this call).
func (t *Tree) packRuns(dst []*Node, entries []Entry, level, perNode int) []*Node {
	first := len(dst)
	for start := 0; start < len(entries); start += perNode {
		end := start + perNode
		if end > len(entries) {
			end = len(entries)
		}
		node := t.newNode(level)
		node.Entries = make([]Entry, end-start)
		copy(node.Entries, entries[start:end])
		dst = append(dst, node)
	}
	if len(dst)-first >= 2 {
		rebalanceTail(t, dst)
	}
	return dst
}

// Build constructs a tree from items either by repeated insertion (the
// paper's method) or by STR bulk loading when bulk is true.  It is a
// convenience wrapper used by the experiment harness and the examples.
func Build(opts Options, items []Item, bulk bool) (*Tree, error) {
	if bulk {
		return BulkLoadSTR(opts, items)
	}
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	t.InsertItems(items)
	return t, nil
}
