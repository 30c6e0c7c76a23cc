package join

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
)

// kNN join: for every R item, report its K nearest S items by the minimum
// Euclidean distance between the minimum bounding rectangles.
//
// The traversal is best-first over node pairs: a priority queue keyed by the
// squared MBR distance of the pair (ties broken by insertion sequence, so the
// schedule is deterministic) repeatedly pops the closest pair and descends
// it.  Each R item carries a bounded max-heap of its best (distance, S id)
// candidates, whose root is the item's pruning bound tau; ties on distance
// are broken towards the smaller S identifier, which makes the result set
// independent of the traversal order and therefore identical across
// sequential, parallel and sharded executions.
//
// Nothing is tested that the R items it can reach no longer need, at three
// levels (section 4 of the paper: restrict the search space, sort, sweep):
// every node of the R subtree keeps the maximum tau of the items below it,
// and a node pair further apart than its own R node's bound is dropped
// unread; the leaf pairs popped at one queue distance are run together, one
// group per R leaf, and each item meets the group's S leaves nearest first,
// stopping at the first whose MBR lies beyond its tau (leafGroup); and in a
// leaf it does meet, an item scans only the strips of the leaf's cached
// xl-order that its current x-window reaches, and inside each strip only its
// current y-window (scanLeaf, scanStrip).  Every prune is strict
// — `lower bound > tau`, never `>=`, and only once the heap holds K
// candidates — because an equidistant candidate with a smaller S identifier
// must still be offered, and every lower bound is exact in floating point.
//
// Distances stay squared end to end (no square root is ever taken or
// charged); every distance computation is charged through the counted
// geom.RectDistSquaredCost and every bound test, binary-search step and heap
// admission test charges one comparison, extending the paper's
// comparison-based CPU measure to the new predicate.

// nnCand is one candidate neighbour in an item's result heap.
type nnCand struct {
	d2  float64
	sID int32
}

// worse reports whether a ranks strictly after b in the (distance, S id)
// order — the order the K nearest are selected under.
func (a nnCand) worse(b nnCand) bool {
	if a.d2 != b.d2 {
		return a.d2 > b.d2
	}
	return a.sID > b.sID
}

// nnHeap is a bounded max-heap over the (distance, S id) order: the root is
// the worst of the current candidates, so a full heap admits a new candidate
// exactly when the candidate ranks before the root.
type nnHeap []nnCand

func (h nnHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].worse(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h nnHeap) siftDown(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && h[l].worse(h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && h[r].worse(h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// offer admits c into the heap held in the first n slots of slab (n <=
// len(slab), the heap's capacity) if it ranks among the len(slab) best, and
// returns the new n.  A full heap charges one threshold comparison for the
// admission test; the distance computation is charged by the caller.
func offer(slab []nnCand, n int, c nnCand, comps *int64) int {
	if n < len(slab) {
		slab[n] = c
		nnHeap(slab[:n+1]).siftUp(n)
		return n + 1
	}
	*comps++
	if !c.worse(slab[0]) && c != slab[0] {
		slab[0] = c
		nnHeap(slab).siftDown(0)
	}
	return n
}

// sortCands orders a finished heap ascending by (distance, S id) for
// emission.  It holds at most K candidates, so an insertion sort beats a
// general sort and allocates nothing.
func sortCands(h []nnCand) {
	for i := 1; i < len(h); i++ {
		c := h[i]
		j := i
		for ; j > 0 && h[j-1].worse(c); j-- {
			h[j] = h[j-1]
		}
		h[j] = c
	}
}

// knnItem is the per-R-entry result state.  Items are addressed by position
// (their leaf's first item plus the entry index), never by identifier, so R
// entries that share an identifier keep separate heaps.
type knnItem struct {
	id int32 // the entry's R identifier, for emission
	n  int32 // candidates currently held, at most knnState.k
}

// knnNode is the per-run pruning state of one node of the R subtree.  It
// lives here and not on rtree.Node: a node is shared by every reader of its
// copy-on-write epoch and by every task of a parallel join.
type knnNode struct {
	// bound is no smaller than the kth-best distance of every item below the
	// node (+Inf while one of them holds fewer than k candidates).  It may
	// lag behind the heaps (stale-high) but is never below them: it is only
	// ever recomputed as a maximum.
	bound  float64
	parent int32 // index into knnState.nodes; -1 at the subtree's root
	first  int32 // leaf: its first item; directory: its first child's node
	n      int32 // number of entries
}

// knnPair is one entry of the best-first queue.
type knnPair struct {
	d2  float64
	seq int64
	rn  *rtree.Node
	sn  *rtree.Node
	ri  int32 // rn's index into knnState.nodes
}

// knnQueue is a min-heap of node pairs keyed by (distance, insertion
// sequence).  The sequence tie-break pins the pop order of equidistant
// pairs, keeping the read schedule deterministic.
type knnQueue []knnPair

func (q knnQueue) before(i, j int) bool {
	if q[i].d2 != q[j].d2 {
		return q[i].d2 < q[j].d2
	}
	return q[i].seq < q[j].seq
}

func (q *knnQueue) push(p knnPair) {
	*q = append(*q, p)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			break
		}
		(*q)[i], (*q)[parent] = (*q)[parent], (*q)[i]
		i = parent
	}
}

func (q *knnQueue) pop() knnPair {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*q = h
	i := 0
	for {
		best := i
		if l := 2*i + 1; l < len(h) && q.before(l, best) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && q.before(r, best) {
			best = r
		}
		if best == i {
			return top
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// knnState bundles the traversal state of one kNN run over one R subtree.
type knnState struct {
	k     int       // neighbours kept per item: min(K, |S|)
	items []knnItem // in registration (depth-first R entry) order
	cands []nnCand  // item i's heap is cands[i*k : i*k+items[i].n]
	nodes []knnNode // the R subtree's nodes; nodes[0] is its root
	queue knnQueue
	seq   int64
	// band holds the leaf pairs popped at the current queue distance, read
	// but not yet joined (runBand).
	band []knnPair
}

// leafDist is an item's distance to the MBR of S leaf i of its group.
type leafDist struct {
	d2 float64
	i  int32
}

// newKNNState registers the R subtree rooted at rn: one slab of k
// candidates per item instead of a heap grown per item, and every slice
// sized by a counting pass, so a run's allocations do not grow with |R|.
func newKNNState(k int, rn *rtree.Node) *knnState {
	nodes, items := countSubtree(rn)
	st := &knnState{
		k:     k,
		items: make([]knnItem, 0, items),
		cands: make([]nnCand, items*k),
		nodes: make([]knnNode, 1, nodes),
	}
	st.register(rn, 0, -1)
	return st
}

// countSubtree returns the number of nodes and of data entries below rn.
func countSubtree(rn *rtree.Node) (nodes, items int) {
	if rn.IsLeaf() {
		return 1, len(rn.Entries)
	}
	nodes = 1
	for i := range rn.Entries {
		n, it := countSubtree(rn.Entries[i].Child)
		nodes += n
		items += it
	}
	return nodes, items
}

// register enters the subtree rooted at rn, whose slot in nodes the caller
// has already made at index self.  Items are collected in depth-first
// entry order, so the emission order is deterministic and independent of the
// traversal and a leaf's items are one contiguous range; a directory node's
// children take consecutive slots, so entry i's node is first+i.
func (st *knnState) register(rn *rtree.Node, self, parent int32) {
	nd := knnNode{bound: math.Inf(1), parent: parent, n: int32(len(rn.Entries))}
	if rn.IsLeaf() {
		nd.first = int32(len(st.items))
		st.nodes[self] = nd
		for i := range rn.Entries {
			st.items = append(st.items, knnItem{id: rn.Entries[i].Data})
		}
		return
	}
	nd.first = int32(len(st.nodes))
	st.nodes[self] = nd
	st.nodes = st.nodes[:len(st.nodes)+len(rn.Entries)]
	for i := range rn.Entries {
		st.register(rn.Entries[i].Child, nd.first+int32(i), self)
	}
}

// heap returns item i's candidates.
func (st *knnState) heap(i int) []nnCand {
	return st.cands[i*st.k : i*st.k+int(st.items[i].n)]
}

// push queues a node pair unless it already lies strictly beyond its R
// node's bound: every item pair below it is at least d2 apart (a child pair
// is never closer than its parent, in floating point too — the entry
// rectangles bound their children exactly and rounding is monotone), and
// bounds only fall, so the pair could never feed a heap.  The caller charges
// the test.
func (st *knnState) push(d2 float64, ri int32, rn, sn *rtree.Node) {
	if d2 > st.nodes[ri].bound {
		return
	}
	st.queue.push(knnPair{d2: d2, seq: st.seq, rn: rn, sn: sn, ri: ri})
	st.seq++
}

// tau returns item i's pruning bound: the distance of its kth-best
// candidate, or +Inf while it holds fewer than k.
func (st *knnState) tau(i int) float64 {
	if int(st.items[i].n) < st.k {
		return math.Inf(1)
	}
	return st.cands[i*st.k].d2
}

// tighten recomputes the bound of R leaf ri from its items' heaps after a
// leaf group fed them, then each ancestor's from its children for as long as
// the maximum moves.  One comparison is charged per value inspected.
func (st *knnState) tighten(ri int32, local *metrics.Local) {
	nd := &st.nodes[ri]
	var comps int64
	bound := 0.0
	for i := int(nd.first); i < int(nd.first+nd.n); i++ {
		comps++
		if t := st.tau(i); t > bound {
			bound = t
		}
	}
	for {
		comps++
		if bound >= nd.bound {
			break
		}
		nd.bound = bound
		if nd.parent < 0 {
			break
		}
		nd = &st.nodes[nd.parent]
		bound = 0
		for _, c := range st.nodes[nd.first : nd.first+nd.n] {
			comps++
			if c.bound > bound {
				bound = c.bound
			}
		}
	}
	local.Comparisons += comps
}

// leafGroup offers the entries of the S leaves of pairs — the leaf pairs of
// one band that share R leaf rn, in pop order — to the heaps of rn's items
// (the first of which is item base), with sc's mbrs and near as scratch.
// Each item meets the leaves nearest first: it computes its distance to
// every leaf's MBR, orders the leaves by (distance, pop order), and scans
// them in that order (scanLeaf) until the next leaf's MBR lies strictly
// beyond its kth-best distance tau — every later leaf lies at least as far —
// so tau is as low as the group allows before each scan and leaves the item
// cannot use are never entered.  The stop is strict and
// armed only once the heap is full, like every prune of the kernel: an
// equidistant candidate with a smaller S identifier must still be offered.
// A single pair is a group of one.  Whatever order the leaves are scanned
// in, every heap ends with the K best of the same offered set, the same as
// one plain product (productPair) per leaf; so the node bounds, the read
// schedule and the emitted pairs do not depend on the kernel.  Every test
// made here — leaf-MBR distance, leaf-order step, stop test — is charged.
// It writes only the heaps of rn's items and reads no node bound, so the
// groups of one band can run concurrently (runBand).
//
//repro:hotpath
func (st *knnState) leafGroup(rn *rtree.Node, base int, pairs []knnPair, sc *leafScratch, local *metrics.Local) {
	k := st.k
	mbrs := sc.mbrs[:0]
	for i := range pairs {
		mbrs = append(mbrs, pairs[i].sn.MBR())
	}
	near := sc.near[:0]
	var comps, tested int64
	for ir := range rn.Entries {
		r := rn.Entries[ir].Rect
		it := &st.items[base+ir]
		slab := st.cands[(base+ir)*k : (base+ir+1)*k]
		n := int(it.n)
		// near ascends by (distance, pop order): an insertion sort that
		// moves a leaf only past strictly further ones.
		near = near[:0]
		for j := range mbrs {
			d2, cost := geom.RectDistSquaredCost(r, mbrs[j])
			comps += cost
			near = append(near, leafDist{d2: d2, i: int32(j)})
			for m := len(near) - 1; m > 0; m-- {
				comps++
				if near[m-1].d2 <= d2 {
					break
				}
				near[m], near[m-1] = near[m-1], near[m]
			}
		}
		for _, l := range near {
			if n == k {
				comps++
				if l.d2 > slab[0].d2 {
					break
				}
			}
			var c, t int64
			n, c, t = scanLeaf(r, pairs[l.i].sn, slab, n)
			comps += c
			tested += t
		}
		it.n = int32(n)
	}
	sc.mbrs, sc.near = mbrs, near
	local.Comparisons += comps
	local.PairsTested += tested
}

// scanLeaf offers the entries of S leaf sn to the heap held in the first n
// slots of slab, visiting only the part of sn the item r can still use, and
// returns the new n with the comparisons charged and the distances computed.
// The leaf's xl-order is cut into strips of rtree.StripLen positions, each
// also sorted by YL (XLOrder.YPerm), and every prune below is exact, strict
// (an equidistant candidate with a smaller S identifier must still be
// offered) and armed only once the heap is full:
//
//   - the item scans its own strip — the last whose first entry begins at or
//     left of the item's XL — then the strips to its right until one begins
//     more than sqrt(tau) right of the item (every later strip begins
//     further right still), then the strips to its left until the running
//     maximum of XU at a strip's end says that no entry at or before it
//     reaches within sqrt(tau) of the item;
//   - inside a strip (scanStrip) the same two breaks run on the y-axis,
//     upwards from the item's YL in YPerm and downwards on PrefixMaxYU.
//
// Each bound is one axis's term of the distance RectDistSquaredCost would
// compute for the pruned entries, taken with the same subtraction on
// operands that dominate theirs, so by monotone rounding it never exceeds
// their computed distance (which adds the other axis's non-negative term).
// That holds only for well-formed rectangles (geom.Rect.WellFormed): with XL
// > XU or YL > YU an entry's gap is not on the side its lower corner puts it,
// and CheckInvariants reports such an entry as rtree.ErrMalformedEntry.  tau
// is re-read at every test because it falls as the scan admits candidates.
//
//repro:hotpath
func scanLeaf(r geom.Rect, sn *rtree.Node, slab []nnCand, n int) (int, int64, int64) {
	const strip = rtree.StripLen
	k := len(slab)
	order := sn.XLOrder()
	perm, maxXU := order.Perm, order.PrefixMaxXU
	sEntries := sn.Entries
	strips := (len(perm) + strip - 1) / strip
	var comps, tested int64
	// own is the last strip whose first entry begins at or left of r.XL, or
	// strip 0 when none does.
	lo, hi := 1, strips
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		comps++
		if sEntries[perm[mid*strip]].Rect.XL <= r.XL {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	own := lo - 1
	var c, t int64
	n, c, t = scanStrip(r, sEntries, order, own*strip, min(own*strip+strip, len(perm)), slab, n)
	comps += c
	tested += t
	for a := own*strip + strip; a < len(perm); a += strip {
		if n == k {
			xl := sEntries[perm[a]].Rect.XL
			comps++
			if r.XU < xl {
				gap := xl - r.XU
				comps++
				if gap*gap > slab[0].d2 {
					break
				}
			}
		}
		n, c, t = scanStrip(r, sEntries, order, a, min(a+strip, len(perm)), slab, n)
		comps += c
		tested += t
	}
	for a := own*strip - strip; a >= 0; a -= strip {
		if n == k {
			xu := maxXU[a+strip-1]
			comps++
			if xu < r.XL {
				gap := r.XL - xu
				comps++
				if gap*gap > slab[0].d2 {
					break
				}
			}
		}
		n, c, t = scanStrip(r, sEntries, order, a, a+strip, slab, n)
		comps += c
		tested += t
	}
	return n, comps, tested
}

// scanStrip offers the entries at positions a..b-1 of order.YPerm, one strip,
// to the heap held in the first n slots of slab and returns the new n with
// the comparisons charged and the distances computed.  It starts at the
// first entry that begins above r.YL and runs upwards until an entry begins
// more than sqrt(tau) above the item — every later one begins higher still —
// then downwards until the strip's running maximum of YU says that no entry
// at or below the position reaches within sqrt(tau) of the item: scanLeaf's
// x-window, on the y-axis of one strip.
//
//repro:hotpath
func scanStrip(r geom.Rect, sEntries []rtree.Entry, order *rtree.XLOrder, a, b int, slab []nnCand, n int) (int, int64, int64) {
	yperm, maxYU := order.YPerm[a:b], order.PrefixMaxYU[a:b]
	k := len(slab)
	var comps, tested int64
	start, hi := 0, len(yperm)
	for start < hi {
		mid := int(uint(start+hi) >> 1)
		comps++
		if sEntries[yperm[mid]].Rect.YL <= r.YL {
			start = mid + 1
		} else {
			hi = mid
		}
	}
	for j := start; j < len(yperm); j++ {
		es := &sEntries[yperm[j]]
		if n == k {
			comps++
			if r.YU < es.Rect.YL {
				gap := es.Rect.YL - r.YU
				comps++
				if gap*gap > slab[0].d2 {
					break
				}
			}
		}
		d2, cost := geom.RectDistSquaredCost(r, es.Rect)
		comps += cost
		tested++
		n = offer(slab, n, nnCand{d2: d2, sID: es.Data}, &comps)
	}
	for j := start - 1; j >= 0; j-- {
		if n == k {
			comps++
			if maxYU[j] < r.YL {
				gap := r.YL - maxYU[j]
				comps++
				if gap*gap > slab[0].d2 {
					break
				}
			}
		}
		es := &sEntries[yperm[j]]
		d2, cost := geom.RectDistSquaredCost(r, es.Rect)
		comps += cost
		tested++
		n = offer(slab, n, nnCand{d2: d2, sID: es.Data}, &comps)
	}
	return n, comps, tested
}

// productPair is the leaf x leaf product the kernel replaced: every entry of
// sn is offered to every item of rn.  The index-free oracle runs on it, and
// FuzzKNNLeafKernel and FuzzKNNLeafGroup hold leafGroup to it.
func (st *knnState) productPair(rn *rtree.Node, base int, sn *rtree.Node, local *metrics.Local) {
	k := st.k
	var comps int64
	for ir := range rn.Entries {
		it := &st.items[base+ir]
		slab := st.cands[(base+ir)*k : (base+ir+1)*k]
		n := int(it.n)
		for is := range sn.Entries {
			es := &sn.Entries[is]
			d2, cost := geom.RectDistSquaredCost(rn.Entries[ir].Rect, es.Rect)
			comps += cost
			n = offer(slab, n, nnCand{d2: d2, sID: es.Data}, &comps)
		}
		it.n = int32(n)
	}
	local.Comparisons += comps
	local.PairsTested += int64(len(rn.Entries) * len(sn.Entries))
}

// runKNN executes the kNN join with the best-first node-pair traversal.
// The read-schedule methods SJ1-SJ5 do not apply here: the priority order
// *is* the read schedule.
func (e *executor) runKNN() {
	e.knnFrom(e.r.Root(), e.s.Root())
}

// knnFrom joins the R subtree rooted at rn against the S tree, whose root is
// sn, and emits the nearest neighbours of every R entry of the subtree.
// Pages are read when their pair is popped — the queue's priority order is
// the read schedule, and a pair is dropped unread, at push or at pop, once
// its distance strictly exceeds the bound of its own R node; the subtree
// root's bound is the global stop.  A popped leaf pair is read at once but
// joined with the band of pairs popped at the same distance, once the
// queue's head lies strictly further (runBand).  That keeps the schedule:
// an item's distance to an entry of a leaf pair is never below the pair's
// distance d, so the pairs of one band leave every tau that was at least d
// at least d, and every bound a pop or push at d tests decides the same way
// with or without them; a pair further than d that a stale-high bound lets
// into the queue is dropped unread at its pop, when the band has been run
// and the bounds are those the pair-at-a-time join would hold.
// ParallelJoin calls knnFrom once per R root entry, so the per-task results
// are disjoint in R and merge by concatenation under any schedule.
func (e *executor) knnFrom(rn, sn *rtree.Node) {
	k := e.knnK()
	if k == 0 {
		return
	}
	st := newKNNState(k, rn)
	if len(st.items) == 0 {
		return
	}

	d2, cost := geom.RectDistSquaredCost(rn.MBR(), sn.MBR())
	e.local.Comparisons += cost
	st.push(d2, 0, rn, sn)

	for len(st.queue) > 0 {
		if e.stopped() {
			return
		}
		if len(st.band) > 0 && st.queue[0].d2 > st.band[0].d2 {
			e.runBand(st)
		}
		p := st.queue.pop()
		// Popped distances never decrease, so beyond the root's bound
		// nothing left in the queue can improve any heap.
		e.local.Comparisons += 2
		if p.d2 > st.nodes[0].bound {
			break
		}
		if p.d2 > st.nodes[p.ri].bound {
			continue
		}
		e.r.AccessNode(e.tracker, p.rn)
		if p.rn.IsLeaf() && p.sn.IsLeaf() {
			// The leaf kernel scans sn in xl-order: a counted read sorts it.
			readSorted(e.s, e.tracker, p.sn, &e.local)
			st.band = append(st.band, p)
			e.crewed()
		} else {
			e.s.AccessNode(e.tracker, p.sn)
			e.knnExpand(st, p)
		}
		e.local.FlushTo(e.metrics)
	}
	e.runBand(st)

	// A stop during the last band may have left heaps unfed; emit nothing.
	if e.stopped() {
		return
	}
	e.emitKNN(st)
}

// runBand joins the pending band of leaf pairs, all popped at one distance:
// one leafGroup per R leaf over its S leaves in pop order, then one tighten.
// Heaps of different R leaves are disjoint, so the groups' order does not
// matter; they run in R node order.  Past the helper gate each group is a
// crew job: the groups run concurrently and the coordinator tightens their
// leaves in R node order as it retires them, so every bound — and with it
// the read schedule — moves exactly as inline.
func (e *executor) runBand(st *knnState) {
	band := st.band
	// Within a band the pop order is the sequence order.
	slices.SortFunc(band, func(a, b knnPair) int {
		if a.ri != b.ri {
			return cmp.Compare(a.ri, b.ri)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := 0; i < len(band); {
		j := i + 1
		for j < len(band) && band[j].ri == band[i].ri {
			j++
		}
		ri := band[i].ri
		base := int(st.nodes[ri].first)
		if e.crew == nil {
			st.leafGroup(band[i].rn, base, band[i:j], &e.arena.leaf, &e.local)
			st.tighten(ri, &e.local)
		} else {
			job := e.slot()
			if job == nil {
				break // stopped
			}
			job.kind, job.nr, job.st, job.group, job.ri, job.base = knnJob, band[i].rn, st, band[i:j], ri, base
			e.publish()
		}
		i = j
	}
	e.drain()
	st.band = band[:0]
}

// emitKNN reports the finished heaps in registration order, each item's
// neighbours ascending by (distance, S id).
func (e *executor) emitKNN(st *knnState) {
	for i := range st.items {
		h := st.heap(i)
		sortCands(h)
		for _, c := range h {
			e.emit(Pair{R: st.items[i].id, S: c.sID})
		}
	}
	e.local.FlushTo(e.metrics)
}

// knnK returns the number of neighbours kept per item: the predicate's K,
// capped at |S| because a heap never holds more candidates than S has items.
func (e *executor) knnK() int {
	return min(e.opts.Predicate.K, e.s.Len())
}

// knnExpand pushes the child pairs of a popped pair with a directory node on
// at least one side, keyed by entry-rectangle distance (the entry rectangles
// are in the already-read parent, so pushing costs no I/O).  Each push is
// charged its distance computation and its bound test.
func (e *executor) knnExpand(st *knnState, p knnPair) {
	var comps int64
	first := st.nodes[p.ri].first
	switch {
	case p.rn.IsLeaf():
		// Heights differ: only the S side descends.
		rMBR := p.rn.MBR()
		for is := range p.sn.Entries {
			es := &p.sn.Entries[is]
			d2, cost := geom.RectDistSquaredCost(rMBR, es.Rect)
			comps += cost + 1
			st.push(d2, p.ri, p.rn, es.Child)
		}
	case p.sn.IsLeaf():
		sMBR := p.sn.MBR()
		for ir := range p.rn.Entries {
			er := &p.rn.Entries[ir]
			d2, cost := geom.RectDistSquaredCost(er.Rect, sMBR)
			comps += cost + 1
			st.push(d2, first+int32(ir), er.Child, p.sn)
		}
	default:
		for ir := range p.rn.Entries {
			er := &p.rn.Entries[ir]
			for is := range p.sn.Entries {
				es := &p.sn.Entries[is]
				d2, cost := geom.RectDistSquaredCost(er.Rect, es.Rect)
				comps += cost + 1
				st.push(d2, first+int32(ir), er.Child, es.Child)
			}
		}
	}
	e.local.Comparisons += comps
}

// nestedLoopKNN is the index-free kNN baseline and oracle: every R item is
// tested against every S item, each keeping its K best candidates.
func (e *executor) nestedLoopKNN() {
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
	k := e.knnK()
	if k == 0 {
		return
	}
	st := &knnState{k: k, items: make([]knnItem, 0, e.r.Len()), cands: make([]nnCand, e.r.Len()*k)}
	for _, rn := range rLeaves {
		if e.stopped() {
			return
		}
		e.r.AccessNode(e.tracker, rn)
		base := len(st.items)
		for i := range rn.Entries {
			st.items = append(st.items, knnItem{id: rn.Entries[i].Data})
		}
		for _, sn := range sLeaves {
			if e.stopped() {
				return
			}
			e.s.AccessNode(e.tracker, sn)
			st.productPair(rn, base, sn, &e.local)
			e.local.FlushTo(e.metrics)
		}
	}
	e.emitKNN(st)
}
