package rtree

import (
	"slices"

	"repro/internal/geom"
)

// buildArena is the reusable scratch space of one tree's construction and
// maintenance path: insertion, forced re-insertion, the split and deletion.
// Every buffer is grown on first use and reused for the lifetime of the
// tree, so in steady state an Insert allocates only when a node actually
// splits (the new page and its entry slice, which the tree keeps).
//
// The arena replaces three per-operation allocation sources of the original
// implementation: the map[int]bool recording which levels already re-inserted
// during one operation (now an epoch-marked slice), the candidate index slice
// of the overlap-minimising ChooseSubtree (allocated per directory node per
// insert), and the sort.Slice scratch of the split machinery (entry copies,
// prefix/suffix MBR arrays, distance sortings).  Every sort runs on keyed
// records (see below) with the same pdqsort the sort.Slice calls used, so
// every permutation — and with it every tree shape — is bit-identical to the
// original (internal/rtree/parity_test.go pins this with structural goldens).
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

	// keys holds the records of the current sort on keys (sibling order,
	// ChooseSubtree candidates, forced-reinsert distances, split axes), and
	// entries a copy of the node forced re-insertion rearranges.
	keys    []keyed
	entries []Entry

	// ChooseSubtree scratch: the candidate indexes, the least-enlargement
	// records they come from, and the overlap terms of one candidate's
	// window with a bit per sibling that has one.
	candIdx []int
	top     []keyed
	terms   []float64
	hits    []uint64

	// removals counts forced re-insertions: an insert whose descent saw it
	// change recomputes the directory rectangles above (insertRec).
	removals int64

	// R*-split scratch: the entries sorted by lower/upper corner per axis
	// ([axis][corner]), and the prefix/suffix MBRs of one sorting.
	sorted [2][2][]Entry
	prefix []geom.Rect
	suffix []geom.Rect
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

// --- sorts on keys ----------------------------------------------------------
//
// Every construction sort orders (key, index) records with slices.SortFunc
// (or slices.SortStableFunc), whose pdqsort (or insertion-sort-and-merge) is
// generated from the same template as sort.Sort's (sort.Stable's): given the
// same outcomes of "a before b" they make the same moves, so the records
// come out in the permutation the sort.Interface sorters of earlier versions
// produced, ties included, without an interface call per comparison or a
// 48-byte entry per swap.  The structural goldens depend on exactly that,
// and TestKeyedSortMatchesSortSort holds each sort to its sort.Sort form.
// The comparison functions answer "before" with a plain < or >, as the
// sorters' Less did: NaN keys sort as they always did.  The bulk load's
// centre sorts run keyedsort.go's copy of the same pdqsort, specialised to
// keyed records.

// keyed is one record of a sort on keys: a float key and the index of the
// entry it belongs to.
type keyed struct {
	key float64
	idx int32
}

// ascending orders keyed records by increasing key.
func ascending(a, b keyed) int {
	if a.key < b.key {
		return -1
	}
	if b.key < a.key {
		return 1
	}
	return 0
}

// descending orders keyed records by decreasing key.
func descending(a, b keyed) int { return ascending(b, a) }

// sortByAxis sorts entries by the lower or upper corner along one axis into
// the arena buffer for (axis, corner), the four sortings of the R*-split,
// and returns the sorted scratch slice.
func (a *buildArena) sortByAxis(entries []Entry, axis, corner int) []Entry {
	recs := a.keys[:0]
	for i := range entries {
		r := &entries[i].Rect
		var k float64
		switch {
		case axis == 0 && corner == 0:
			k = r.XL
		case axis == 0:
			k = r.XU
		case corner == 0:
			k = r.YL
		default:
			k = r.YU
		}
		recs = append(recs, keyed{key: k, idx: int32(i)})
	}
	a.keys = recs
	slices.SortFunc(recs, ascending)
	buf := a.sorted[axis][corner][:0]
	if cap(buf) < len(entries) {
		buf = make([]Entry, 0, len(entries))
	}
	for _, k := range recs {
		buf = append(buf, entries[k.idx])
	}
	a.sorted[axis][corner] = buf
	return buf
}
