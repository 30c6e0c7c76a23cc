// Package rtree implements the spatial access method the paper joins: the
// R*-tree (Beckmann et al. 1990) with overlap-minimising subtree choice,
// forced re-insertion and the margin-driven split.
//
// One node corresponds to one page of the simulated secondary storage
// (internal/storage); the node capacity M is derived from the page size and
// reproduces the capacities of the paper's Table 1.  Trees are built in
// memory but carry page identifiers so that the join algorithms can charge
// node accesses to a shared LRU buffer (internal/buffer.Tracker), which is
// exactly the I/O model of the paper's experiments.
//
//repro:measured
package rtree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/storage"
)

// DefaultReinsertFraction is the share p of entries removed from an
// overflowing node for forced re-insertion; 30% is the value recommended by
// the R*-tree paper.
const DefaultReinsertFraction = 0.30

// minFillPercent is the minimum node fill m as a percentage of the capacity
// M, the R*-tree paper's recommendation.  New clamps it so that
// 2 <= m <= M/2, as the R-tree definition requires.
const minFillPercent = 40

// chooseSubtreeCandidates bounds the number of entries examined by the
// overlap-minimising ChooseSubtree.  The R*-tree paper proposes examining
// only the 32 entries with the least area enlargement when the node capacity
// is large; this keeps insertion cost near-linear for 8 KByte pages.
const chooseSubtreeCandidates = 32

// Options configures a tree.
type Options struct {
	// PageSize is the size of one node page in bytes.  It determines the node
	// capacity M = PageSize / storage.EntrySize.  Defaults to 4 KByte.
	PageSize int
}

// Entry is one slot of a node: a rectangle plus either a child node
// (directory entry) or an object identifier (data entry).
type Entry struct {
	// Rect is the minimum bounding rectangle of the child node's contents
	// (directory entry) or of the referenced spatial object (data entry).
	Rect geom.Rect
	// Child is the child node for directory entries and nil for data entries.
	Child *Node
	// Data is the object identifier for data entries.
	Data int32
}

// Node is one node of the tree and corresponds to exactly one page.
type Node struct {
	// ID is the page identifier of the node.
	ID storage.PageID
	// Level is the node's distance from the leaf level; leaves have level 0.
	Level int
	// Entries are the node's slots, between m and M for non-root nodes.
	Entries []Entry
	// epoch is the copy-on-write epoch the node was created (or copied) in;
	// nodes whose epoch predates the tree's latest snapshot fence are shared
	// with that snapshot and must be copied before mutation (see snapshot.go).
	epoch int64
	// xlOrder is the entries' stable ascending-XL order for the sweep joins,
	// built by the writer before the tree is ready; nil again after every
	// in-place mutation (xlorder.go).
	xlOrder *XLOrder
	// sib is the writer's order of the entries for ChooseSubtree's overlap
	// scan; nil until a leaf-parent's first R* choice (siblingorder.go).
	// Readers of a snapshot never touch it.
	sib *siblingOrder
}

// IsLeaf reports whether the node is a leaf (level 0).
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// MBR returns the minimum bounding rectangle of all entries of the node, or
// the zero Rect for a node without entries (the root of an empty tree).
func (n *Node) MBR() geom.Rect {
	if len(n.Entries) == 0 {
		return geom.Rect{}
	}
	r := n.Entries[0].Rect
	for _, e := range n.Entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// Item is a data rectangle to be stored in a tree, used by bulk loading and
// the data generators.
type Item struct {
	Rect geom.Rect
	Data int32
}

// treeIDs hands out process-wide unique tree identifiers so that pages of
// different trees can share one buffer without colliding.
var treeIDs atomic.Int64

// Tree is an R*-tree over two-dimensional rectangles.
//
// A Tree is not safe for concurrent mutation; concurrent read-only queries
// are safe once construction is complete.
type Tree struct {
	id     int
	opts   Options
	maxEnt int // M
	minEnt int // m
	root   *Node
	height int            // number of levels; 1 while the root is a leaf
	size   int            // number of data entries
	nextID storage.PageID // last page identifier newNode handed out; never recycled
	build  buildArena     // reusable construction scratch (see arena.go)
	// muts counts structural mutations (inserts, deletes, buffered appends,
	// a page load, a snapshot); the insertion buffer's leaf hint uses it to
	// detect that the tree changed underneath a cached leaf pointer (see
	// insertbuf.go), and Ready a tree mutated since the writer made it ready.
	muts  int64
	ready int64             // muts at the writer's last makeReady (snapshot.go)
	cat   costmodel.Catalog // the catalog makeReady walked
	// cowEpoch is the copy-on-write epoch fence: nodes stamped with an older
	// epoch are shared with a published snapshot and are copied before any
	// mutation (see snapshot.go).  0 until the first Snapshot, in which case
	// every ownership check short-circuits.
	cowEpoch int64
}

type pendingEntry struct {
	entry Entry
	level int
}

// New creates an empty tree.
func New(opts Options) (*Tree, error) {
	if opts.PageSize == 0 {
		opts.PageSize = storage.PageSize4K
	}
	maxEnt := storage.CapacityForPage(opts.PageSize)
	if maxEnt < 4 {
		return nil, fmt.Errorf("rtree: page size %d holds only %d entries, need at least 4", opts.PageSize, maxEnt)
	}
	minEnt := min(max(maxEnt*minFillPercent/100, 2), maxEnt/2)
	t := &Tree{
		id:     int(treeIDs.Add(1)),
		opts:   opts,
		maxEnt: maxEnt,
		minEnt: minEnt,
		height: 1,
	}
	t.root = t.newNode(0)
	t.makeReady()
	return t, nil
}

// MustNew is like New but panics on error; intended for tests and examples
// with known-good options.
func MustNew(opts Options) *Tree {
	t, err := New(opts)
	if err != nil {
		panic(err)
	}
	return t
}

// newNode allocates a node with a fresh page identifier (1, 2, 3, ... in
// allocation order), owned by the current write epoch.
func (t *Tree) newNode(level int) *Node {
	t.nextID++
	return t.nodeWithID(t.nextID, level)
}

// nodeWithID allocates a node with a page identifier the caller reserved
// (the bulk loader reserves a level's identifiers at once), owned by the
// current write epoch.
func (t *Tree) nodeWithID(id storage.PageID, level int) *Node {
	return &Node{ID: id, Level: level, epoch: t.cowEpoch}
}

// ID returns the process-wide unique identifier of the tree, used to
// namespace its pages in a shared buffer.
func (t *Tree) ID() int { return t.id }

// Root returns the root node.  The root is a leaf while the tree holds at
// most M entries.
func (t *Tree) Root() *Node { return t.root }

// Height returns the number of levels of the tree (1 for a single leaf).
// This matches the "height" column of the paper's Table 1.
func (t *Tree) Height() int { return t.height }

// Len returns the number of data entries stored in the tree.
func (t *Tree) Len() int { return t.size }

// MaxEntries returns the node capacity M.
func (t *Tree) MaxEntries() int { return t.maxEnt }

// MinEntries returns the minimum node fill m.
func (t *Tree) MinEntries() int { return t.minEnt }

// PageSize returns the page size in bytes of the tree's nodes.
func (t *Tree) PageSize() int { return t.opts.PageSize }

// Bounds returns the minimum bounding rectangle of all stored data
// rectangles and false if the tree is empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.MBR(), true
}

// Stats summarises the structure of a tree; it corresponds to one row of the
// paper's Table 1.
type Stats struct {
	Height      int
	DirPages    int // |R|dir: number of directory (non-leaf) pages
	DataPages   int // |R|dat: number of data (leaf) pages
	DirEntries  int // ||R||dir
	DataEntries int // ||R||dat
	Utilization float64
}

// TotalPages returns directory plus data pages (|R|).
func (s Stats) TotalPages() int { return s.DirPages + s.DataPages }

// Stats returns the tree's structural statistics, read from CatalogStats.
func (t *Tree) Stats() Stats {
	// An empty tree is one empty leaf page, which the catalog does not count.
	s := Stats{Height: t.height, DataPages: 1}
	for _, ls := range t.CatalogStats().Levels {
		if ls.Level == 0 {
			s.DataPages, s.DataEntries = int(ls.Nodes), int(ls.Entries)
		} else {
			s.DirPages += int(ls.Nodes)
			s.DirEntries += int(ls.Entries)
		}
	}
	capTotal := s.DataPages * t.maxEnt
	if capTotal > 0 {
		s.Utilization = float64(s.DataEntries) / float64(capTotal)
	}
	return s
}

// walk visits every node in depth-first pre-order.
func (t *Tree) walk(n *Node, fn func(*Node)) {
	fn(n)
	if n.IsLeaf() {
		return
	}
	for _, e := range n.Entries {
		t.walk(e.Child, fn)
	}
}

// Walk visits every node of the tree in depth-first pre-order.  It is
// exported for statistics, validation and persistence.
func (t *Tree) Walk(fn func(*Node)) { t.walk(t.root, fn) }

// String implements fmt.Stringer with a compact summary.
func (t *Tree) String() string {
	s := t.Stats()
	return fmt.Sprintf("R*-tree{pageSize=%d M=%d m=%d height=%d entries=%d dirPages=%d dataPages=%d}",
		t.opts.PageSize, t.maxEnt, t.minEnt, t.height, t.size, s.DirPages, s.DataPages)
}
