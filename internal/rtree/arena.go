package rtree

import (
	"sort"

	"repro/internal/geom"
)

// buildArena is the reusable scratch space of one tree's construction and
// maintenance path: insertion, forced re-insertion, both split algorithms and
// deletion.  Every buffer is grown on first use and reused for the lifetime
// of the tree, so in steady state an Insert allocates only when a node
// actually splits (the new page and its entry slice, which the tree keeps).
//
// The arena replaces three per-operation allocation sources of the original
// implementation: the map[int]bool recording which levels already re-inserted
// during one operation (now an epoch-marked slice), the candidate index slice
// of the overlap-minimising ChooseSubtree (allocated per directory node per
// insert), and the sort.Slice scratch of the split machinery (entry copies,
// prefix/suffix MBR arrays, distance sortings).  All sorts go through
// preallocated sort.Interface values driven by sort.Sort, which runs the
// identical pdqsort the sort.Slice calls used, so every permutation — and
// with it every tree shape — is bit-identical to the original
// (internal/rtree/parity_test.go pins this with structural goldens).
type buildArena struct {
	// epoch marks one Insert or Delete; reinserted[level] == epoch encodes
	// "this level already performed a forced re-insertion during the current
	// operation" without clearing anything between operations.
	epoch      int64
	reinserted []int64

	// pending is the forced re-insertion queue, consumed FIFO via head so the
	// buffer (not just its tail) is reused across operations.
	pending []pendingEntry
	head    int

	// orphans collects the entries of nodes dissolved by a Delete, and path
	// the entry indexes from the root to the entry a Delete found.
	orphans []pendingEntry
	path    []int

	// lastLeaf is the leaf that received the most recent data entry; the
	// Hilbert insertion buffer seeds its next insert from it (insertbuf.go).
	// Purely observational: plain Insert never reads it.
	lastLeaf *Node

	// ChooseSubtree candidate scratch.
	candIdx    []int
	candEnl    []float64
	candSorter candSorter

	// Forced-reinsert distance sorting.
	dists      []distEntry
	distSorter distSorter

	// R*-split scratch: the entries sorted by lower/upper corner per axis
	// ([axis][corner]), and the prefix/suffix MBRs of one sorting.
	sorted     [2][2][]Entry
	axisSorter axisEntrySorter
	prefix     []geom.Rect
	suffix     []geom.Rect

	// Quadratic-split scratch.
	groupA    []Entry
	groupB    []Entry
	remaining []Entry
}

// begin starts one Insert or Delete: levels re-inserted during earlier
// operations become stale without touching the slice.
func (a *buildArena) begin() { a.epoch++ }

// wasReinserted reports whether the level already re-inserted during the
// current operation.
func (a *buildArena) wasReinserted(level int) bool {
	return level < len(a.reinserted) && a.reinserted[level] == a.epoch
}

// markReinserted records a forced re-insertion at the level for the current
// operation.
func (a *buildArena) markReinserted(level int) {
	for len(a.reinserted) <= level {
		a.reinserted = append(a.reinserted, 0)
	}
	a.reinserted[level] = a.epoch
}

// pushPending queues an entry for re-insertion at the given level.
func (a *buildArena) pushPending(e Entry, level int) {
	a.pending = append(a.pending, pendingEntry{entry: e, level: level})
}

// popPending dequeues the oldest pending entry.  Draining the queue resets it
// to the start of its buffer.
func (a *buildArena) popPending() (pendingEntry, bool) {
	if a.head >= len(a.pending) {
		a.pending = a.pending[:0]
		a.head = 0
		return pendingEntry{}, false
	}
	p := a.pending[a.head]
	a.head++
	return p, true
}

// prefixSuffixMBRs fills the arena's prefix/suffix buffers with
// prefix[i] = MBR(sorted[0..i]) and suffix[i] = MBR(sorted[i..]), allowing
// all split distributions to be evaluated in linear time.
func (a *buildArena) prefixSuffixMBRs(sorted []Entry) (prefix, suffix []geom.Rect) {
	n := len(sorted)
	if cap(a.prefix) < n {
		a.prefix = make([]geom.Rect, n)
		a.suffix = make([]geom.Rect, n)
	}
	prefix, suffix = a.prefix[:n], a.suffix[:n]
	prefix[0] = sorted[0].Rect
	for i := 1; i < n; i++ {
		prefix[i] = prefix[i-1].Union(sorted[i].Rect)
	}
	suffix[n-1] = sorted[n-1].Rect
	for i := n - 2; i >= 0; i-- {
		suffix[i] = suffix[i+1].Union(sorted[i].Rect)
	}
	return prefix, suffix
}

// --- preallocated sorters ---------------------------------------------------
//
// Each sorter is a value stored in the arena and passed to sort.Sort as a
// pointer, so the interface conversion never allocates.  sort.Sort and
// sort.Slice are instantiations of the same pdqsort, so given identical Less
// outcomes they produce identical permutations; the structural goldens depend
// on exactly that.

// candSorter orders the candidate indexes of ChooseSubtree by ascending area
// enlargement, mirroring the original sort.Slice closure (which recomputed
// the enlargement per comparison; the values are precomputed here, which
// cannot change any comparison outcome).
type candSorter struct {
	idx []int
	enl []float64
}

func (s *candSorter) Len() int           { return len(s.idx) }
func (s *candSorter) Swap(i, j int)      { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *candSorter) Less(i, j int) bool { return s.enl[s.idx[i]] < s.enl[s.idx[j]] }

// distEntry pairs an entry with the distance of its centre from the node
// centre, for the forced-reinsert ordering.
type distEntry struct {
	dist float64
	e    Entry
}

// distSorter orders by decreasing distance (farthest entries are removed).
type distSorter struct {
	d []distEntry
}

func (s *distSorter) Len() int           { return len(s.d) }
func (s *distSorter) Swap(i, j int)      { s.d[i], s.d[j] = s.d[j], s.d[i] }
func (s *distSorter) Less(i, j int) bool { return s.d[i].dist > s.d[j].dist }

// axisEntrySorter orders entries by the lower or upper corner of their
// rectangles along one axis, the four sortings of the R*-split.
type axisEntrySorter struct {
	e     []Entry
	axis  int  // 0 = x, 1 = y
	upper bool // sort by upper instead of lower corner
}

func (s *axisEntrySorter) Len() int      { return len(s.e) }
func (s *axisEntrySorter) Swap(i, j int) { s.e[i], s.e[j] = s.e[j], s.e[i] }
func (s *axisEntrySorter) Less(i, j int) bool {
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

// sortByAxis copies entries into the arena buffer for (axis, corner) and
// sorts it, returning the sorted scratch slice.
func (a *buildArena) sortByAxis(entries []Entry, axis, corner int) []Entry {
	buf := a.sorted[axis][corner]
	if cap(buf) < len(entries) {
		buf = make([]Entry, 0, len(entries))
	}
	buf = buf[:len(entries)]
	copy(buf, entries)
	a.sorted[axis][corner] = buf
	a.axisSorter.e = buf
	a.axisSorter.axis = axis
	a.axisSorter.upper = corner == 1
	sort.Sort(&a.axisSorter)
	a.axisSorter.e = nil
	return buf
}
