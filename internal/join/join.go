// Package join implements the spatial-join algorithms of the paper: the
// straightforward R*-tree join (SpatialJoin1), its CPU-tuned variants
// (search-space restriction and the sorted intersection test), the I/O-tuned
// read schedules (local plane-sweep order, pinning, local z-order) and the
// policies for joining trees of different heights, plus a nested-loop
// baseline without index support.
//
// All algorithms compute the MBR-spatial-join: the set of pairs of object
// identifiers whose minimum bounding rectangles satisfy the configured join
// predicate — intersection (section 2.1), within-distance (epsilon-expanded
// rectangles through the same machinery) or k-nearest-neighbours (a
// best-first traversal over node-pair MBR distance).  CPU cost is charged to
// a metrics.Collector as floating-point comparisons and I/O cost as page
// accesses through a shared LRU buffer, mirroring the paper's cost measures.
//
// Join keeps one schedule but not one core: from its first leaf pair it
// hands its leaf stage — the leaf x leaf sweeps of SJ3-SJ5 and the leaf
// groups of a kNN band — to helper goroutines, while the calling goroutine
// keeps the traversal, every read, every pinning decision and every emitted
// pair, in schedule order (helpers.go).
//
//repro:measured
package join

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/metrics"
	"repro/internal/rtree"
)

// Method selects the join algorithm.
type Method int

const (
	// NestedLoop is the baseline without index support: every object of R is
	// tested against every object of S.
	NestedLoop Method = iota
	// SJ1 is the straightforward R*-tree join of section 4.1: synchronized
	// depth-first traversal, every entry of one node tested against every
	// entry of the other.
	SJ1
	// SJ2 adds the search-space restriction of section 4.2: only entries
	// intersecting the intersection rectangle of the two parent entries are
	// tested against each other.
	SJ2
	// SJ3 adds spatial sorting and the plane-sweep intersection test of
	// section 4.2 and uses the sweep output order as the read schedule
	// ("local plane-sweep order", section 4.3).
	SJ3
	// SJ4 is SJ3 plus pinning: after joining a pair of directory pages, the
	// page whose rectangle intersects the most unprocessed rectangles of the
	// other node is pinned in the buffer and completely processed first.
	// This is the algorithm the paper recommends.
	SJ4
	// SJ5 orders the read schedule by the z-order value of the intersection
	// rectangles' centres instead of the plane-sweep order (with pinning).
	SJ5
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case NestedLoop:
		return "NestedLoop"
	case SJ1:
		return "SpatialJoin1"
	case SJ2:
		return "SpatialJoin2"
	case SJ3:
		return "SpatialJoin3"
	case SJ4:
		return "SpatialJoin4"
	case SJ5:
		return "SpatialJoin5"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all tree-based join algorithms in the order the paper
// introduces them.
var Methods = []Method{SJ1, SJ2, SJ3, SJ4, SJ5}

// HeightPolicy selects how a directory node of the taller tree is joined with
// a data node of the shorter tree (section 4.4).
type HeightPolicy int

const (
	// PolicyWindowPerPair performs one window query on the directory subtree
	// for every intersecting pair of entries (policy (a)).
	PolicyWindowPerPair HeightPolicy = iota
	// PolicyBatchedWindows performs all window queries that fall into one
	// subtree in a single traversal, so each page of the subtree is read at
	// most once (policy (b); the paper's recommendation).
	PolicyBatchedWindows
	// PolicySweepOrder performs the window queries in local plane-sweep order
	// of the intersecting pairs (policy (c)).
	PolicySweepOrder
)

// String implements fmt.Stringer.
func (p HeightPolicy) String() string {
	switch p {
	case PolicyWindowPerPair:
		return "policy(a)"
	case PolicyBatchedWindows:
		return "policy(b)"
	case PolicySweepOrder:
		return "policy(c)"
	default:
		return fmt.Sprintf("HeightPolicy(%d)", int(p))
	}
}

// Pair is one result of the MBR-spatial-join: the identifiers of two objects
// whose minimum bounding rectangles intersect.
type Pair struct {
	R, S int32
}

// Options configures a join run.
type Options struct {
	// Method selects the algorithm.  The default is SJ4, the paper's best
	// performing variant.
	Method Method
	// BufferBytes is the size of the shared LRU buffer in bytes (0 disables
	// buffering, reproducing the paper's "buffer size = 0" rows).
	BufferBytes int
	// UsePathBuffer enables the per-tree path buffer in addition to the LRU
	// buffer, as the paper's R*-tree implementation does.
	UsePathBuffer bool
	// HeightPolicy selects the strategy for joining trees of different
	// heights.  The default is PolicyBatchedWindows (policy (b)).
	HeightPolicy HeightPolicy
	// Collector receives the cost counters.  If nil a fresh collector is used
	// and returned in the result.
	Collector *metrics.Collector
	// DiscardPairs suppresses materialising the result pairs; only the count
	// is reported.  Benchmarks use it to avoid measuring slice growth.  With
	// OnPair nil as well the sweep joins and kNN count their qualifying pairs
	// without building them.
	DiscardPairs bool
	// DisableRestriction turns off the search-space restriction in the
	// sweep-based joins (SJ3-SJ5).  It reproduces "version (I)" of the
	// paper's Table 4, which isolates the effect of spatial sorting from the
	// effect of restricting the search space.
	DisableRestriction bool
	// Predicate selects the join condition.  The zero value is the
	// MBR-intersection predicate of the paper; see PredWithinDist and
	// PredKNN for the distance-based extensions.
	Predicate Predicate
	// OnPair, if non-nil, is called for every result pair in the order the
	// algorithm produces them (before any materialisation).
	OnPair func(Pair)
	// Context, if non-nil, cancels the join: the traversal polls the
	// context's Done signal (mirrored into an atomic flag) at node-pair
	// granularity, abandons the descent and returns ErrCancelled wrapping
	// the context's cause, so errors.Is against context.Canceled and
	// context.DeadlineExceeded distinguishes cancellation from a deadline.
	// Partial results are discarded deterministically — a cancelled join
	// never returns a Result — though an OnPair callback may have observed
	// a prefix of the pair stream.
	Context context.Context
	// PageReaderR and PageReaderS attach real page sources for the two trees
	// (keyed by their node identifiers, as rtree.TreeStore serves them).
	// When set, every counted disk read of the join also performs
	// a physical page read — the measured-I/O mode of the disk experiments.
	// A physical read failure stops the traversal at the next node pair and
	// fails the join with the wrapped error.
	PageReaderR buffer.PageReader
	PageReaderS buffer.PageReader
	// PageCache, if non-nil, attaches a shared byte cache below the counted
	// LRU: counted misses of trees with an attached PageReader are served
	// from the cache when possible and only cache misses reach the pager.
	// Leaving it nil keeps the strict counted-miss == physical-read
	// invariant of the disk experiments.
	PageCache *buffer.PageCache
}

// Result is the outcome of a join.
type Result struct {
	// Pairs holds the result pairs unless Options.DiscardPairs was set.
	Pairs []Pair
	// Count is the number of result pairs.
	Count int
	// Metrics is a snapshot of the counters accumulated during the join.
	Metrics metrics.Snapshot
	// Method records the algorithm that produced the result.
	Method Method
	// Predicate records the join condition the result answers.
	Predicate Predicate
	// StolenTasks is always 0.  It is the ledger's join.par_stolen_tasks
	// (bench/ladder.go:499), kept only so the bench module compiles; ROADMAP
	// item 8(d) deletes it with ledgercompat.go.
	StolenTasks int
}

// Errors returned by Join.
var (
	ErrNilTree          = errors.New("join: nil tree")
	ErrPageSizeMismatch = errors.New("join: trees must use the same page size")
)

// Join computes the MBR-spatial-join of the two trees.
//
// The traversal, the page reads and the emission run on the calling
// goroutine.  On a host with GOMAXPROCS > 1 a join also runs its leaf sweeps
// and kNN leaf groups on up to three helper goroutines, from its first leaf
// pair on.  It emits their pairs in the order the inline join would.  The
// pairs, their order, the OnPair sequence, the read schedule and every
// counter are those of the join without helpers; only the wall time moves.
// The helpers are gone when Join returns.
func Join(r, s *rtree.Tree, opts Options) (*Result, error) {
	if r == nil || s == nil {
		return nil, ErrNilTree
	}
	if r.PageSize() != s.PageSize() {
		return nil, fmt.Errorf("%w: %d vs %d", ErrPageSizeMismatch, r.PageSize(), s.PageSize())
	}
	if err := opts.Predicate.Validate(); err != nil {
		return nil, err
	}
	if opts.Context != nil && opts.Context.Err() != nil {
		return nil, cancelErr(opts.Context)
	}
	collector := opts.Collector
	if collector == nil {
		collector = metrics.NewCollector()
	}
	before := collector.Snapshot()

	tracker := getTracker(opts.BufferBytes, r.PageSize(), opts.UsePathBuffer, collector)
	defer putTracker(tracker)
	if opts.PageReaderR != nil {
		tracker.SetPageReader(r.ID(), opts.PageReaderR)
	}
	if opts.PageReaderS != nil {
		tracker.SetPageReader(s.ID(), opts.PageReaderS)
	}
	if opts.PageCache != nil {
		tracker.SetPageCache(opts.PageCache)
	}

	watch := newCancelWatch(opts.Context)
	defer watch.stop()
	ar := arenaPool.Get().(*arena)
	defer arenaPool.Put(ar)
	e := &executor{
		r:       r,
		s:       s,
		tracker: tracker,
		metrics: collector,
		opts:    opts,
		arena:   ar,
		cancel:  watch,
		onPair:  opts.OnPair,
		discard: opts.DiscardPairs,
	}
	if opts.Predicate.Kind == PredWithinDist {
		e.eps = opts.Predicate.Epsilon
		e.eps2 = e.eps * e.eps
	}
	e.helpers = joinHelpers()

	switch {
	case opts.Predicate.Kind == PredKNN:
		// The kNN predicate replaces the synchronized descent with a
		// best-first traversal over node-pair MBR distance; the read-schedule
		// variants SJ1-SJ5 do not apply.  NestedLoop remains the index-free
		// oracle baseline.
		if opts.Method == NestedLoop {
			e.nestedLoopKNN()
		} else {
			e.runKNN()
		}
	case opts.Method == NestedLoop:
		e.nestedLoop()
	case opts.Method == SJ1:
		e.runSJ1()
	case opts.Method == SJ2:
		e.runSJ2()
	case opts.Method == SJ3, opts.Method == SJ5:
		e.runSweep(opts.Method)
	case opts.Method == SJ4:
		e.runSweep(SJ4)
	default:
		return nil, fmt.Errorf("join: unknown method %v", opts.Method)
	}
	e.drain()
	e.dismiss()
	e.local.FlushTo(collector)

	if opts.Context != nil && opts.Context.Err() != nil {
		return nil, cancelErr(opts.Context)
	}
	if err := tracker.ReadErr(); err != nil {
		return nil, fmt.Errorf("join: physical page read failed: %w", err)
	}
	res := &Result{Method: opts.Method, Predicate: opts.Predicate, Pairs: e.collectPairs(), Count: e.count}
	res.Metrics = collector.Snapshot().Sub(before)
	return res, nil
}

// trackerPool holds idle trackers, each with its LRU and read frame, for
// the joins.  Like crewPool it is a
// channel: a sync.Pool loses its items to a garbage collection, and an item
// put on one P is not seen by a Get on another, so a warm join would now
// and then build a fresh tracker, LRU and read frame.  A tracker that finds
// the pool full is dropped.
var trackerPool = make(chan *buffer.Tracker, 16)

// getTracker returns the tracker of one join: over an empty LRU of
// bufferBytes, charging col, with no page reader, page cache or read error left from an earlier join.
func getTracker(bufferBytes, pageSize int, usePathBuffer bool, col *metrics.Collector) *buffer.Tracker {
	select {
	case t := <-trackerPool:
		t.LRU().ReconfigureForBytes(bufferBytes, pageSize)
		t.Reconfigure(col, pageSize, usePathBuffer)
		return t
	default:
		return buffer.NewTracker(buffer.NewLRUForBytes(bufferBytes, pageSize), col, pageSize, usePathBuffer)
	}
}

// putTracker returns t to the pool detached from its join's collector, page
// readers and page cache, so an idle tracker holds no epoch's pages.
func putTracker(t *buffer.Tracker) {
	t.Reconfigure(nil, 0, false)
	select {
	case trackerPool <- t:
	default:
	}
}

// executor bundles the state shared by all join algorithms of one run.
//
// Cost accounting goes through the plain (non-atomic) local batch counter,
// which every node-pair routine flushes to the shared collector when it is
// done; only the buffer tracker charges the collector directly, once per
// page access.  Scratch space comes from the per-depth arena, so after the
// first descent the join loop performs no allocations at all (results are
// collected in pairs unless Options.DiscardPairs was set).
type executor struct {
	r, s    *rtree.Tree
	tracker *buffer.Tracker
	metrics *metrics.Collector
	local   metrics.Local
	opts    Options
	arena   *arena
	cancel  *cancelWatch
	zsorter zkeySorter

	// eps and eps2 cache the within-distance threshold (and its square) of
	// Options.Predicate; both stay 0 for every other predicate, which keeps
	// expandR an identity and the intersection paths bit-identical.
	eps, eps2 float64

	onPair  func(Pair)
	discard bool
	count   int
	// pairs is where emit appends: the join fills the arena's fixed-size
	// chunks one after the other — pairs is the one being filled, full of
	// them are behind it — and copies them once into an exactly sized
	// result, so a large result is never regrown and recopied.
	pairs []Pair
	full  int

	// helpers is the number of helper goroutines the join starts at its
	// first leaf pair; crew is non-nil while they run (helpers.go).
	helpers int
	crew    *crew
}

// stopped reports whether the traversal should unwind: its context fired,
// or a physical page read failed.  Either way the join returns an
// error and no Result, so the traversal polls it once per node pair and
// neither reads further pages nor hands an OnPair observer further pairs.
func (e *executor) stopped() bool {
	return e.cancel.cancelled() || e.tracker.Halted()
}

// counting reports whether the join neither keeps nor observes its pairs,
// so its leaf stage and kNN count them instead of building them.
func (e *executor) counting() bool {
	return e.discard && e.onPair == nil
}

// emit reports one result pair.
func (e *executor) emit(p Pair) {
	e.count++
	e.local.PairsReported++
	if e.onPair != nil {
		e.onPair(p)
	}
	if !e.discard {
		if len(e.pairs) == cap(e.pairs) {
			e.nextChunk()
		}
		e.pairs = append(e.pairs, p)
	}
}

// emitPairs reports a run of result pairs in order, as emit would one by
// one, but counts them at once and copies them into the result a chunk at a
// time.
//
//repro:hotpath
func (e *executor) emitPairs(ps []Pair) {
	e.countPairs(len(ps))
	if e.onPair != nil {
		for _, p := range ps {
			e.onPair(p)
		}
	}
	if e.discard {
		return
	}
	for len(ps) > 0 {
		if len(e.pairs) == cap(e.pairs) {
			e.nextChunk()
		}
		n := min(len(ps), cap(e.pairs)-len(e.pairs))
		e.pairs = append(e.pairs, ps[:n]...)
		ps = ps[n:]
	}
}

// emitLeaf reports the n pairs of one leaf pair's sweep: the run out, or,
// when the join counts, n pairs it never built.
//
//repro:hotpath
func (e *executor) emitLeaf(out []Pair, n int) {
	if e.counting() {
		e.countPairs(n)
		return
	}
	e.emitPairs(out)
}

// countPairs reports n result pairs without building them.
//
//repro:hotpath
func (e *executor) countPairs(n int) {
	e.count += n
	e.local.PairsReported += int64(n)
}

// nextChunk retires the chunk emit has filled, if any, and points pairs at
// the arena's next one.
func (e *executor) nextChunk() {
	a := e.arena
	if e.pairs != nil {
		e.full++
	}
	if e.full == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Pair, 0, pairChunk))
	}
	e.pairs = a.chunks[e.full]
}

// collectPairs copies a join's chunks into its result.  Join calls
// it after its error checks, so a cancelled or failed join copies nothing,
// and before the arena goes back to the pool.
func (e *executor) collectPairs() []Pair {
	if e.pairs == nil {
		return nil
	}
	out := make([]Pair, 0, e.full*pairChunk+len(e.pairs))
	for _, c := range e.arena.chunks[:e.full] {
		out = append(out, c[:pairChunk]...)
	}
	return append(out, e.pairs...)
}

// accessRoots charges the initial read of both root pages, which every
// tree-based join performs exactly once.
func (e *executor) accessRoots() {
	e.readPair(e.r.Root(), e.s.Root())
}
