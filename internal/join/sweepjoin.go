package join

import (
	"slices"
	"sort"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/sweep"
	"repro/internal/zorder"
)

// runSweep executes SpatialJoin3, 4 or 5: search-space restriction plus the
// sorted intersection test, with the read schedule given by the plane-sweep
// output order (SJ3), the plane-sweep order with pinning (SJ4) or the local
// z-order with pinning (SJ5).
func (e *executor) runSweep(method Method) {
	e.accessRoots()
	rootRect, ok := e.rootRect()
	if !ok {
		return
	}
	e.sweepJoin(e.r.Root(), e.s.Root(), rootRect, method, 0)
}

// sweepJoin joins two nodes using spatial sorting and the plane-sweep
// intersection test (section 4.2) and schedules the child reads according to
// the selected method (section 4.3).  A pair of leaves goes to the leaf stage
// (leafPair).  All scratch space comes from the arena's frame for this
// depth, so in steady state the routine allocates nothing; the accumulated
// costs are flushed to the shared collector once when the node pair is done.
//
//repro:hotpath
func (e *executor) sweepJoin(nr, ns *rtree.Node, rect geom.Rect, method Method, depth int) {
	// One cancellation poll per node pair (see Options.Context): the descent
	// unwinds without reading further pages and Join discards the partials.
	if e.stopped() {
		return
	}
	if handled := e.handleHeightDifference(nr, ns, &rect); handled {
		e.local.FlushTo(e.metrics)
		return
	}
	if nr.IsLeaf() && ns.IsLeaf() {
		e.leafPair(nr, ns, rect)
		return
	}

	// Restrict the search space to the parents' intersection rectangle and
	// gather the survivors sorted by their lower x-corner.  Both nodes were
	// sorted when they were read (readPair), so the restriction is a filter
	// over each node's xl-order.  Version (I) of Table 4 skips the
	// restriction to isolate the effect of sorting.
	f := e.arena.frame(depth)
	restrict := &rect
	if e.opts.DisableRestriction {
		restrict = nil
	}
	sweepNodes(nr, ns, restrict, e.eps, &f.sweepScratch, &e.local)
	if len(f.pairs) == 0 {
		e.local.FlushTo(e.metrics)
		return
	}

	if method == SJ5 {
		// Local z-order: sort the qualifying pairs by the z-order value of
		// the centre of their intersection rectangles.  The grid covers the
		// current node pair's search space.
		world := nr.MBR().Union(ns.MBR())
		f.zkeys = f.zkeys[:0]
		for _, p := range f.pairs {
			in, _ := e.expandR(nr.Entries[f.rIdx[p.R]].Rect).Intersection(ns.Entries[f.sIdx[p.S]].Rect)
			f.zkeys = append(f.zkeys, zorder.RectKey(in, world))
		}
		e.zsorter.pairs = f.pairs
		e.zsorter.zkeys = f.zkeys
		sort.Stable(&e.zsorter)
		e.zsorter.pairs, e.zsorter.zkeys = nil, nil
	}
	e.local.FlushTo(e.metrics)

	switch method {
	case SJ3:
		for _, p := range f.pairs {
			e.descend(nr.Entries[f.rIdx[p.R]], ns.Entries[f.sIdx[p.S]], method, depth)
		}
	default: // SJ4 and SJ5 use pinning.
		e.processWithPinning(nr, ns, f, method, depth)
	}
}

// leafPair runs the leaf stage of a leaf x leaf pair whose pages the
// coordinator has read: as a job for the crew, which finishes it in queue
// order (helpers.go), or inline when the join has no helpers, as at
// GOMAXPROCS=1.  Either way the same joinLeaves
// produces the pairs, or only their count, and the coordinator emits them.
//
//repro:hotpath
func (e *executor) leafPair(nr, ns *rtree.Node, rect geom.Rect) {
	if e.crewed() {
		if j := e.slot(); j != nil {
			j.kind, j.nr, j.ns, j.rect = sweepJob, nr, ns, rect
			e.publish()
			e.retireFinished()
		}
		return
	}
	sc := &e.arena.leaf
	restrict := &rect
	if e.opts.DisableRestriction {
		restrict = nil
	}
	var n int
	sc.out, n = joinLeaves(nr, ns, restrict, e.eps, e.eps2, &sc.sweepScratch, !e.counting(), sc.out[:0], &e.local)
	e.emitLeaf(sc.out, n)
	e.local.FlushTo(e.metrics)
}

// sweepNodes restricts both nodes to rect (nil takes them whole), the R side
// expanded by eps, and runs the sorted intersection test over the survivors:
// sc.pairs holds the qualifying pairs in local plane-sweep order (section
// 4.2), charged to local.
//
//repro:hotpath
func sweepNodes(nr, ns *rtree.Node, rect *geom.Rect, eps float64, sc *sweepScratch, local *metrics.Local) {
	sc.rIdx, sc.rRects = restrictSorted(nr, rect, eps, sc.rIdx[:0], sc.rRects[:0], local)
	sc.sIdx, sc.sRects = restrictSorted(ns, rect, 0, sc.sIdx[:0], sc.sRects[:0], local)
	sc.pairs = sc.pairs[:0]
	if len(sc.rIdx) == 0 || len(sc.sIdx) == 0 {
		return
	}
	sc.pairs = sweep.AppendPairs(sc.rRects, sc.sRects, local, sc.pairs)
	local.PairsTested += int64(len(sc.pairs))
}

// joinLeaves is the leaf stage of the sweep joins: it sweeps two leaves
// (sweepNodes) and returns the number of pairs that satisfy the predicate,
// charging local; with keep set it also appends them to out, in sweep order.
// Under the within-distance predicate (eps > 0) the sweep's corner pairs get
// the exact counted Euclidean test, kept or not.  It reads only the two
// nodes, which no join mutates, and its arguments, so a helper can run it
// while the coordinator reads further pages.
//
//repro:hotpath
func joinLeaves(nr, ns *rtree.Node, rect *geom.Rect, eps, eps2 float64, sc *sweepScratch, keep bool, out []Pair, local *metrics.Local) ([]Pair, int) {
	sweepNodes(nr, ns, rect, eps, sc, local)
	if eps > 0 {
		// The sweep filtered on expanded rectangles (a Chebyshev ball); the
		// predicate is Euclidean, so corner pairs need the exact counted
		// distance test.
		var comps, n int64
		for _, p := range sc.pairs {
			er := &nr.Entries[sc.rIdx[p.R]]
			es := &ns.Entries[sc.sIdx[p.S]]
			ok, cost := geom.WithinDistSquaredCost(er.Rect, es.Rect, eps2)
			comps += cost
			n += geom.Bit(ok)
			if keep && ok {
				out = append(out, Pair{R: er.Data, S: es.Data})
			}
		}
		local.Comparisons += comps
		return out, int(n)
	}
	if keep {
		for _, p := range sc.pairs {
			out = append(out, Pair{R: nr.Entries[sc.rIdx[p.R]].Data, S: ns.Entries[sc.sIdx[p.S]].Data})
		}
	}
	return out, len(sc.pairs)
}

// descend reads the two child pages and joins them recursively.
//
//repro:hotpath
func (e *executor) descend(er, es rtree.Entry, method Method, depth int) {
	childRect, ok := e.expandR(er.Rect).Intersection(es.Rect)
	if !ok {
		return
	}
	e.readPair(er.Child, es.Child)
	e.sweepJoin(er.Child, es.Child, childRect, method, depth+1)
}

// restrictSorted appends to idx the entries of n that intersect rect, in the
// node's xl-order, and to rects their rectangles expanded by eps (non-zero
// only on the R side of a within-distance join).  A filter of a stably sorted
// sequence is the stable sort of the filtered set, so this is the section-4.2
// "restrict, then sort the survivors" in one pass.  A nil rect takes the
// whole node.
//
// The marking scan is charged as if IntersectsCost had tested every entry,
// but only a window of the order is visited.  Entries from position hi on
// begin right of rect and fail the first conjunct: one comparison each.
// Before position lo the running maximum of XU has not reached rect.XL, so
// those entries end left of rect: they pass the first conjunct and fail the
// second, two comparisons each.  Both cuts are binary searches, and both
// survive the expansion: rounding x-eps and x+eps is monotone in x, so the
// expanded lower corners are still in order and the expanded running maximum
// is the running maximum of the expanded corners — one stored order serves
// every predicate.  Inside the window the first conjunct holds and the other
// three are evaluated as 0/1 integers b, c, d: the short-circuit cost is
// 2 + b + b&c, every entry is stored unconditionally into room reserved
// before the loop, and the write index moves on by b&c&d — no comparison is
// a jump.  Both cuts, like the sweep after them, are exact only on
// well-formed rectangles (geom.Rect.WellFormed: finite corners, XL <= XU,
// YL <= YU): on an entry with its corners swapped the nested loop and the
// sweep joins return different pairs.  CheckInvariants reports such an
// entry as rtree.ErrMalformedEntry, and the service rejects one at the way
// in.
//
//repro:hotpath
func restrictSorted(n *rtree.Node, rect *geom.Rect, eps float64, idx []int32, rects []geom.Rect, local *metrics.Local) ([]int32, []geom.Rect) {
	order := n.XLOrder()
	perm := order.Perm
	entries := n.Entries
	if rect == nil {
		idx = append(idx, perm...)
		for _, i := range perm {
			rects = append(rects, expandEps(entries[i].Rect, eps))
		}
		return idx, rects
	}
	// hi is the first position whose entry begins right of rect.
	hi := 0
	for end := len(perm); hi < end; {
		mid := int(uint(hi+end) >> 1)
		if entries[perm[mid]].Rect.XL-eps > rect.XU {
			end = mid
		} else {
			hi = mid + 1
		}
	}
	// lo is the first position before hi that some entry at or before it
	// reaches.
	lo := 0
	for end := hi; lo < end; {
		mid := int(uint(lo+end) >> 1)
		if order.PrefixMaxXU[mid]+eps < rect.XL {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	comps := int64(2*lo + len(perm) - hi)

	wi, wr := len(idx), len(rects)
	idx = slices.Grow(idx, hi-lo)[:wi+hi-lo]
	rects = slices.Grow(rects, hi-lo)[:wr+hi-lo]
	keptIdx, keptRects := idx[wi:], rects[wr:]
	w := 0
	for _, i := range perm[lo:hi] {
		r := expandEps(entries[i].Rect, eps)
		b := geom.Bit(rect.XL <= r.XU)
		c := b & geom.Bit(r.YL <= rect.YU)
		comps += 2 + b + c
		keptIdx[w] = i
		keptRects[w] = r
		w += int(c & geom.Bit(rect.YL <= r.YU))
	}
	local.Comparisons += comps
	return idx[:wi+w], rects[:wr+w]
}

// readSorted charges one read of n for a sweep.  Section 4.2 sorts a page's
// entries "each time a page is read into the buffer" and Table 4 prices one
// sorting pass per page read, so a counted disk read also charges the node's
// sort — the comparison count the writer stored with its xl-order —
// and a buffer hit finds the page already sorted.
//
//repro:hotpath
func readSorted(t *rtree.Tree, tr *buffer.Tracker, n *rtree.Node, local *metrics.Local) {
	if !t.AccessNode(tr, n) {
		local.NodeSorts++
		local.SortComparisons += n.XLOrder().SortComparisons
	}
}

// readPair reads the two nodes of a qualifying pair.  The reads sort the
// pages when the pair is about to be swept: by SJ3-SJ5 for two nodes of the
// same kind, by height policy (c) under any method for a data node paired
// with a directory node.
//
//repro:hotpath
func (e *executor) readPair(nr, ns *rtree.Node) {
	swept := e.opts.Method >= SJ3
	if nr.IsLeaf() != ns.IsLeaf() {
		swept = e.opts.HeightPolicy == PolicySweepOrder
	}
	if !swept {
		e.r.AccessNode(e.tracker, nr)
		e.s.AccessNode(e.tracker, ns)
		return
	}
	readSorted(e.r, e.tracker, nr, &e.local)
	readSorted(e.s, e.tracker, ns, &e.local)
}

// processWithPinning processes the qualifying pairs in schedule order and,
// after each pair, pins the page whose rectangle has the maximal degree (the
// number of unprocessed rectangles of the other node it intersects) and
// completely processes that page before returning to the schedule
// (section 4.3, "local plane-sweep order with pinning").
func (e *executor) processWithPinning(nr, ns *rtree.Node, f *frame, method Method, depth int) {
	pairs := f.pairs
	f.processed = f.processed[:0]
	f.degR = f.degR[:0]
	f.degS = f.degS[:0]
	for range pairs {
		f.processed = append(f.processed, false)
	}
	// degR[i] counts the remaining pairs involving f.rIdx[i]; degS likewise.
	for range f.rIdx {
		f.degR = append(f.degR, 0)
	}
	for range f.sIdx {
		f.degS = append(f.degS, 0)
	}
	for _, p := range pairs {
		f.degR[p.R]++
		f.degS[p.S]++
	}
	processPair := func(idx int) {
		p := pairs[idx]
		f.processed[idx] = true
		f.degR[p.R]--
		f.degS[p.S]--
		e.descend(nr.Entries[f.rIdx[p.R]], ns.Entries[f.sIdx[p.S]], method, depth)
	}

	for i := range pairs {
		if f.processed[i] {
			continue
		}
		p := pairs[i]
		processPair(i)

		// Pin the page with the larger remaining degree and finish all of its
		// pairs while it is guaranteed to stay in the buffer.
		if f.degR[p.R] >= f.degS[p.S] && f.degR[p.R] > 0 {
			er := nr.Entries[f.rIdx[p.R]]
			e.tracker.Pin(e.r.ID(), er.Child.ID)
			for j := i + 1; j < len(pairs); j++ {
				if !f.processed[j] && pairs[j].R == p.R {
					processPair(j)
				}
			}
			e.tracker.Unpin(e.r.ID(), er.Child.ID)
		} else if f.degS[p.S] > 0 {
			es := ns.Entries[f.sIdx[p.S]]
			e.tracker.Pin(e.s.ID(), es.Child.ID)
			for j := i + 1; j < len(pairs); j++ {
				if !f.processed[j] && pairs[j].S == p.S {
					processPair(j)
				}
			}
			e.tracker.Unpin(e.s.ID(), es.Child.ID)
		}
	}
}
