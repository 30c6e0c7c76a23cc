package join

import (
	"repro/internal/geom"
	"repro/internal/rtree"
)

// nestedLoop is the index-free baseline of section 2.1: every object of R is
// tested against every object of S.  Its I/O model is a block nested loop:
// every data page of R is read once, and for every data page of R every data
// page of S is read (subject to the shared buffer), which is why the paper
// dismisses it for large relations.
func (e *executor) nestedLoop() {
	var rLeaves, sLeaves []*rtree.Node
	e.r.Walk(func(n *rtree.Node) {
		if n.IsLeaf() {
			rLeaves = append(rLeaves, n)
		}
	})
	e.s.Walk(func(n *rtree.Node) {
		if n.IsLeaf() {
			sLeaves = append(sLeaves, n)
		}
	})
	for _, rn := range rLeaves {
		if e.stopped() {
			return
		}
		e.r.AccessNode(e.tracker, rn)
		for _, sn := range sLeaves {
			if e.stopped() {
				return
			}
			e.s.AccessNode(e.tracker, sn)
			var comps int64
			for _, er := range rn.Entries {
				for _, es := range sn.Entries {
					ok, cost := e.leafTest(er.Rect, es.Rect)
					comps += cost
					if ok {
						e.emit(Pair{R: er.Data, S: es.Data})
					}
				}
			}
			e.local.Comparisons += comps
			e.local.FlushTo(e.metrics)
		}
	}
}

// runSJ1 executes SpatialJoin1 (section 4.1).
func (e *executor) runSJ1() {
	e.accessRoots()
	e.sj1(e.r.Root(), e.s.Root())
}

// sj1 is the straightforward join: every entry of nr is tested against every
// entry of ns; qualifying directory pairs are descended into.
func (e *executor) sj1(nr, ns *rtree.Node) {
	// One cancellation poll per node pair: an abandoned descent unwinds here
	// without touching further pages, and Join discards the partial result.
	if e.stopped() {
		return
	}
	if leafDir := e.handleHeightDifference(nr, ns, nil); leafDir {
		e.local.FlushTo(e.metrics)
		return
	}
	if nr.IsLeaf() && ns.IsLeaf() {
		var comps int64
		for is := range ns.Entries {
			es := &ns.Entries[is]
			for ir := range nr.Entries {
				er := &nr.Entries[ir]
				ok, cost := e.leafTest(er.Rect, es.Rect)
				comps += cost
				if ok {
					e.emit(Pair{R: er.Data, S: es.Data})
				}
			}
		}
		e.local.Comparisons += comps
		e.local.PairsTested += int64(len(nr.Entries) * len(ns.Entries))
		e.local.FlushTo(e.metrics)
		return
	}
	for is := range ns.Entries {
		es := ns.Entries[is]
		for ir := range nr.Entries {
			er := nr.Entries[ir]
			e.local.PairsTested++
			ok, cost := geom.IntersectsCost(e.expandR(er.Rect), es.Rect)
			e.local.Comparisons += cost
			if !ok {
				continue
			}
			e.readPair(er.Child, es.Child)
			e.sj1(er.Child, es.Child)
		}
	}
	e.local.FlushTo(e.metrics)
}

// runSJ2 executes SpatialJoin2: SJ1 plus the search-space restriction.
func (e *executor) runSJ2() {
	e.accessRoots()
	rootRect, ok := e.rootRect()
	if !ok {
		return
	}
	e.sj2(e.r.Root(), e.s.Root(), rootRect, 0)
}

// rootIntersection returns the intersection of the MBRs of both trees; if the
// trees do not overlap at all the join result is empty.
func rootIntersection(r, s *rtree.Tree) (geom.Rect, bool) {
	rb, okR := r.Bounds()
	sb, okS := s.Bounds()
	if !okR || !okS {
		return geom.Rect{}, false
	}
	return rb.Intersection(sb)
}

// rootRect returns the initial search-space restriction of this run: the
// intersection of the (epsilon-expanded, for within-distance) R bounds with
// the S bounds.  An empty intersection means an empty join result.
func (e *executor) rootRect() (geom.Rect, bool) {
	rb, okR := e.r.Bounds()
	sb, okS := e.s.Bounds()
	if !okR || !okS {
		return geom.Rect{}, false
	}
	return e.expandR(rb).Intersection(sb)
}

// sj2 joins two nodes considering only entries that intersect rect, the
// intersection of the parents' rectangles (section 4.2, "restricting the
// search space").  The marking scans are charged one comparison predicate per
// entry, as in the paper's accounting.  The surviving entries are recorded as
// indices in the depth's scratch frame, so the restriction allocates nothing
// in steady state.
func (e *executor) sj2(nr, ns *rtree.Node, rect geom.Rect, depth int) {
	if e.stopped() {
		return
	}
	if leafDir := e.handleHeightDifference(nr, ns, &rect); leafDir {
		e.local.FlushTo(e.metrics)
		return
	}
	f := e.arena.frame(depth)
	f.rIdx = e.restrictIdx(nr.Entries, rect, f.rIdx[:0], e.eps)
	f.sIdx = e.restrictIdx(ns.Entries, rect, f.sIdx[:0], 0)
	if nr.IsLeaf() && ns.IsLeaf() {
		var comps, tested int64
		for _, is := range f.sIdx {
			es := &ns.Entries[is]
			for _, ir := range f.rIdx {
				er := &nr.Entries[ir]
				tested++
				ok, cost := e.leafTest(er.Rect, es.Rect)
				comps += cost
				if ok {
					e.emit(Pair{R: er.Data, S: es.Data})
				}
			}
		}
		e.local.Comparisons += comps
		e.local.PairsTested += tested
		e.local.FlushTo(e.metrics)
		return
	}
	for _, is := range f.sIdx {
		es := ns.Entries[is]
		for _, ir := range f.rIdx {
			er := nr.Entries[ir]
			e.local.PairsTested++
			erRect := e.expandR(er.Rect)
			ok, cost := geom.IntersectsCost(erRect, es.Rect)
			e.local.Comparisons += cost
			if !ok {
				continue
			}
			childRect, _ := erRect.Intersection(es.Rect)
			e.readPair(er.Child, es.Child)
			e.sj2(er.Child, es.Child, childRect, depth+1)
		}
	}
	e.local.FlushTo(e.metrics)
}

// restrictIdx appends to idx, in entry order, the indices of the entries whose
// rectangle intersects rect, charging one intersection predicate per entry
// for the marking scan.  eps is non-zero only for entries of the R tree under
// the within-distance predicate, whose rectangles are epsilon-expanded in
// every test they take part in.
func (e *executor) restrictIdx(entries []rtree.Entry, rect geom.Rect, idx []int32, eps float64) []int32 {
	var comps int64
	for i := range entries {
		ok, cost := geom.IntersectsCost(expandEps(entries[i].Rect, eps), rect)
		comps += cost
		if ok {
			idx = append(idx, int32(i))
		}
	}
	e.local.Comparisons += comps
	return idx
}
