package rtree

import (
	"sync"

	"repro/internal/costmodel"
)

// Catalog statistics: the exact per-level structure of a tree — node and
// entry counts, and the mean entry width — as the planner's catalog.
//
// The statistics are a function of the tree, not of its history: one
// depth-first walk computes them, and the result is cached until the next
// mutation advances the tree's mutation counter.  A published snapshot never
// mutates, so it walks at most once; the server pays that walk on the first
// join of each epoch.  Collection is read-only observation: it never changes
// the tree shape, so the structural parity goldens are unaffected.

// catalogCache holds the statistics of one tree version.  The mutex guards
// the lazy walk: concurrent read-only users of a finished tree (the
// documented concurrency contract) may all call CatalogStats, and the first
// one in walks while the rest wait.
type catalogCache struct {
	mu    sync.Mutex
	valid bool
	muts  int64 // the tree's mutation counter when cat was walked
	cat   costmodel.Catalog
}

// CatalogStats returns the tree's catalog statistics, walking the tree once
// per version: per-level node and entry counts, and per level the mean over
// its nodes of each node's mean entry width (at the leaves, the mean data-
// rectangle width).  An empty tree has an invalid catalog with no levels.
func (t *Tree) CatalogStats() costmodel.Catalog {
	c := &t.catalog
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid || c.muts != t.muts {
		c.cat = t.walkCatalog()
		c.valid, c.muts = true, t.muts
	}
	return c.cat
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
