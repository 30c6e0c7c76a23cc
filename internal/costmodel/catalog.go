package costmodel

// Catalog statistics: per-level structural summaries of an R-tree, computed
// exactly by one walk of the tree version they describe.  They play the role
// of the statistics a query planner keeps in its catalog: the planner may
// consult them at any time without touching the tree's pages, so feeding
// them to a cost estimator charges no I/O.

// LevelStats summarises one level of a tree.  Level 0 is the leaf level.
type LevelStats struct {
	// Level is the distance from the leaf level (0 = leaves).
	Level int
	// Nodes is the number of nodes at this level.
	Nodes int64
	// Entries is the number of entries stored at this level; at level 0 this
	// is the number of data rectangles.
	Entries int64
	// AvgEntryWidth is the mean over the level's nodes of each node's mean
	// entry width.  At the leaf level it is the mean data-rectangle width,
	// the quantity a plane-sweep selectivity estimate needs.
	AvgEntryWidth float64
}

// Catalog is the statistics of one tree.
type Catalog struct {
	// PageSize is the page size in bytes of the tree's nodes.
	PageSize int
	// Height is the number of levels (1 for a single leaf).
	Height int
	// Levels holds one entry per level, indexed by level (Levels[0] = leaves).
	Levels []LevelStats
}

// Valid reports whether the catalog holds usable statistics: at least a leaf
// level with a non-zero node count.
func (c Catalog) Valid() bool {
	return len(c.Levels) > 0 && c.Levels[0].Nodes > 0
}

// DataEntries returns the number of data rectangles recorded by the catalog
// (0 for an invalid catalog).
func (c Catalog) DataEntries() int64 {
	if !c.Valid() {
		return 0
	}
	return c.Levels[0].Entries
}

// clampLevel maps out-of-range levels onto the recorded range so that a
// caller asking about a level the catalog never saw (e.g. after the tree
// grew) gets the nearest recorded answer instead of a panic.
func (c Catalog) clampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(c.Levels) {
		return len(c.Levels) - 1
	}
	return level
}

// SubtreePages returns the expected number of pages of a subtree whose root
// sits at the given level: the population of each level at or below it,
// divided by the number of subtree roots.  Unlike the catalog-average
// fan-out^level model this reflects the tree as built, including underfilled
// levels and bulk-load packing.
func (c Catalog) SubtreePages(level int) float64 {
	if !c.Valid() {
		return 0
	}
	level = c.clampLevel(level)
	roots := float64(c.Levels[level].Nodes)
	if roots == 0 {
		return 0
	}
	var pages float64
	for l := 0; l <= level; l++ {
		pages += float64(c.Levels[l].Nodes)
	}
	return pages / roots
}

// SubtreeEntries returns the expected number of data rectangles below one
// node at the given level.
func (c Catalog) SubtreeEntries(level int) float64 {
	if !c.Valid() {
		return 0
	}
	level = c.clampLevel(level)
	roots := float64(c.Levels[level].Nodes)
	if roots == 0 {
		return 0
	}
	return float64(c.DataEntries()) / roots
}

// LeafExtent returns the mean data-rectangle width (0 for an invalid
// catalog).  Selectivity estimates use it to turn "entries in a region" into
// "expected x-overlapping pairs".
func (c Catalog) LeafExtent() float64 {
	if !c.Valid() {
		return 0
	}
	return c.Levels[0].AvgEntryWidth
}
