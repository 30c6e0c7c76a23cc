package rtree

import "repro/internal/costmodel"

// CatalogStats returns the tree's catalog statistics, the exact per-level
// structure of a tree as the planner's catalog: per-level node and entry
// counts, and per level the mean over its nodes of each node's mean entry
// width (at the leaves, the mean data-rectangle width).  They are a function
// of the tree, not of its history, and reading them changes nothing.  A
// ready tree returns the catalog the writer walked when it made the tree
// ready; a tree mutated since walks afresh.  An empty tree has an invalid
// catalog with no levels.
func (t *Tree) CatalogStats() costmodel.Catalog {
	if t.Ready() {
		return t.cat
	}
	return t.walkCatalog()
}

// walkCatalog computes the catalog with one depth-first walk.  Nodes of a
// level are visited in pre-order and each node's widths summed in entry
// order, so the result is a deterministic function of the tree.
func (t *Tree) walkCatalog() costmodel.Catalog {
	cat := costmodel.Catalog{PageSize: t.opts.PageSize, Height: t.height}
	if t.size == 0 {
		return cat
	}
	cat.Levels = make([]costmodel.LevelStats, t.height)
	t.walk(t.root, func(n *Node) {
		var w float64
		for _, e := range n.Entries {
			w += e.Rect.Width()
		}
		ls := &cat.Levels[n.Level]
		ls.Nodes++
		ls.Entries += int64(len(n.Entries))
		ls.AvgEntryWidth += w / float64(len(n.Entries))
	})
	for l := range cat.Levels {
		ls := &cat.Levels[l]
		ls.Level = l
		ls.AvgEntryWidth /= float64(ls.Nodes)
	}
	return cat
}
