package join

import (
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/sweep"
)

// handleHeightDifference deals with the case of section 4.4: the two trees
// have different heights, so the synchronized descent eventually pairs a data
// (leaf) node of the shorter tree with a directory node of the taller tree.
// In that case the data rectangles of the leaf node are evaluated as window
// queries against the subtrees referenced by the directory node, following
// the configured HeightPolicy.  It reports whether the pair was handled here;
// if both nodes are of the same kind the caller continues its normal
// algorithm.
//
// rect optionally restricts the search space (it is the intersection of the
// parents' rectangles); SJ1 passes nil.
func (e *executor) handleHeightDifference(nr, ns *rtree.Node, rect *geom.Rect) bool {
	// The window queries below emit directly, with no leaf job queued before
	// them: trees of different heights never pair two leaves, so a join that
	// gets here has no crew (helpers.go).
	switch {
	case nr.IsLeaf() == ns.IsLeaf():
		return false
	case nr.IsLeaf():
		// nr holds data rectangles of R, ns is a directory node of S.
		e.joinLeafWithDirectory(nr, ns, e.s, rect, false)
	default:
		// ns holds data rectangles of S, nr is a directory node of R.
		e.joinLeafWithDirectory(ns, nr, e.r, rect, true)
	}
	return true
}

// emitLeafDir reports one (data entry, subtree entry) result, preserving the
// R/S orientation chosen by handleHeightDifference: with swapped set, the
// leaf holds data of S and the directory subtree data of R.
func (e *executor) emitLeafDir(dataID, subtreeID int32, swapped bool) {
	if swapped {
		e.emit(Pair{R: subtreeID, S: dataID})
	} else {
		e.emit(Pair{R: dataID, S: subtreeID})
	}
}

// joinLeafWithDirectory joins the data node leaf with the directory node dir
// belonging to dirTree.  The routine never nests, so all scratch space comes
// from the executor's single heights arena.
func (e *executor) joinLeafWithDirectory(leaf, dir *rtree.Node, dirTree *rtree.Tree, rect *geom.Rect, swapped bool) {
	h := &e.arena.heights
	// Under the within-distance predicate the R-side rectangles are the
	// expanded ones; which physical side that is depends on the orientation
	// chosen by handleHeightDifference.  The pairwise leaf-vs-directory tests
	// below expand the leaf rectangle instead — the expanded-intersection
	// test is symmetric in the per-axis gaps, so the two conventions accept
	// exactly the same pairs.
	leafEps, dirEps := e.eps, 0.0
	if swapped {
		leafEps, dirEps = 0, e.eps
	}
	switch {
	case e.opts.HeightPolicy == PolicySweepOrder:
		// Policy (c) sweeps the pair, so it takes the restricted entries in
		// xl-order; both pages were sorted when readPair read them.
		h.leafIdx, h.leafRects = restrictSorted(leaf, rect, leafEps, h.leafIdx[:0], h.leafRects[:0], &e.local)
		h.dirIdx, h.dirRects = restrictSorted(dir, rect, dirEps, h.dirIdx[:0], h.dirRects[:0], &e.local)
	case rect != nil:
		h.leafIdx = e.restrictIdx(leaf.Entries, *rect, h.leafIdx[:0], leafEps)
		h.dirIdx = e.restrictIdx(dir.Entries, *rect, h.dirIdx[:0], dirEps)
	default:
		h.leafIdx = appendAllIdx(h.leafIdx[:0], len(leaf.Entries))
		h.dirIdx = appendAllIdx(h.dirIdx[:0], len(dir.Entries))
	}
	if len(h.leafIdx) == 0 || len(h.dirIdx) == 0 {
		return
	}

	switch e.opts.HeightPolicy {
	case PolicyBatchedWindows:
		// Policy (b): for each directory entry, run all window queries that
		// intersect it in one traversal of its subtree, so that every page of
		// the subtree is read at most once.  The callback is hoisted out of
		// the loop (it reads the current h.ids at call time), so the loop body
		// allocates nothing.
		emit := func(q int, found rtree.Entry) {
			if e.eps > 0 {
				ok, cost := geom.WithinDistSquaredCost(h.exact[q], found.Rect, e.eps2)
				e.local.Comparisons += cost
				if !ok {
					return
				}
			}
			e.emitLeafDir(h.ids[q], found.Data, swapped)
		}
		for _, id := range h.dirIdx {
			if e.stopped() {
				return
			}
			de := dir.Entries[id]
			h.queries = h.queries[:0]
			h.ids = h.ids[:0]
			h.exact = h.exact[:0]
			var comps int64
			for _, il := range h.leafIdx {
				le := &leaf.Entries[il]
				e.local.PairsTested++
				q := e.expandR(le.Rect)
				ok, cost := geom.IntersectsCost(q, de.Rect)
				comps += cost
				if ok {
					h.queries = append(h.queries, q)
					h.ids = append(h.ids, le.Data)
					h.exact = append(h.exact, le.Rect)
				}
			}
			e.local.Comparisons += comps
			if len(h.queries) == 0 {
				continue
			}
			e.local.FlushTo(e.metrics)
			dirTree.AccessNode(e.tracker, de.Child)
			dirTree.BatchSearchSubtreeScratch(de.Child, h.queries, e.tracker, &h.batch, emit)
		}

	case PolicySweepOrder:
		// Policy (c): determine the intersecting (data, directory) pairs with
		// the sorted intersection test and run the window queries in that
		// spatially local order; the shared LRU buffer provides the reuse.
		if swapped && e.eps > 0 {
			// The restriction expanded the R side, which is the directory
			// here; the sweep, like the window queries it orders, expands the
			// data rectangles whichever tree they belong to.
			for i := range h.leafRects {
				h.leafRects[i] = geom.ExpandRect(h.leafRects[i], e.eps)
			}
			for i, id := range h.dirIdx {
				h.dirRects[i] = dir.Entries[id].Rect
			}
		}
		h.pairs = sweep.AppendPairs(h.leafRects, h.dirRects, &e.local, h.pairs[:0])
		e.local.PairsTested += int64(len(h.pairs))
		e.local.FlushTo(e.metrics)
		for _, p := range h.pairs {
			if e.stopped() {
				return
			}
			le := leaf.Entries[h.leafIdx[p.R]]
			de := dir.Entries[h.dirIdx[p.S]]
			dirTree.AccessNode(e.tracker, de.Child)
			dirTree.SearchSubtree(de.Child, e.expandR(le.Rect), e.tracker, func(found rtree.Entry) bool {
				if e.eps > 0 {
					ok, cost := geom.WithinDistSquaredCost(le.Rect, found.Rect, e.eps2)
					e.local.Comparisons += cost
					if !ok {
						return true
					}
				}
				e.emitLeafDir(le.Data, found.Data, swapped)
				return true
			})
		}

	default:
		// Policy (a): an individual window query per intersecting pair; the
		// pages of a subtree are read again for every query unless the buffer
		// still holds them.
		for _, il := range h.leafIdx {
			le := leaf.Entries[il]
			for _, id := range h.dirIdx {
				if e.stopped() {
					return
				}
				de := dir.Entries[id]
				e.local.PairsTested++
				ok, cost := geom.IntersectsCost(e.expandR(le.Rect), de.Rect)
				e.local.Comparisons += cost
				if !ok {
					continue
				}
				e.local.FlushTo(e.metrics)
				dirTree.AccessNode(e.tracker, de.Child)
				dirTree.SearchSubtree(de.Child, e.expandR(le.Rect), e.tracker, func(found rtree.Entry) bool {
					if e.eps > 0 {
						ok, cost := geom.WithinDistSquaredCost(le.Rect, found.Rect, e.eps2)
						e.local.Comparisons += cost
						if !ok {
							return true
						}
					}
					e.emitLeafDir(le.Data, found.Data, swapped)
					return true
				})
			}
		}
	}
}
