package join

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
)

// Helpers: the sequential join on the spare cores.
//
// Join traverses on the calling goroutine, the coordinator.  From its first
// leaf pair it hands the leaf stage to helper goroutines: the leaf x leaf
// sweeps of SJ3-SJ5 (joinLeaves) and the leaf groups of a kNN band
// (leafGroup).  A job reads immutable nodes and writes only its own output —
// its pairs or their count, or the heaps of its R leaf — and its own
// metrics.Local.  The coordinator keeps everything whose order matters: the
// directory traversal, every page read (tracker, LRU, path buffer, page
// cache, pager) and sort charge, every pinning decision, every emit and
// OnPair call, and every kNN bound.  It retires the jobs in the order it
// queued them — a sweep job's pairs are emitted, a kNN job's leaf is
// tightened — and adds their counters, whose sums do not depend on who ran
// what.  So the pairs, their order, the read schedule and every counter are
// those of the inline join; only the wall time moves.
//
// There is no spinning: a helper with nothing to claim parks on the crew's
// work condition, and the coordinator, when the ring is full or it needs
// every job finished, runs the oldest unclaimed job itself and parks only
// on a head job a helper holds.

const (
	// maxHelpers caps the helpers of one join: the coordinator's own share —
	// the traversal and the reads — bounds the speed-up anyway.
	maxHelpers = 3
	// ringSize is the number of jobs in flight: queued, running, or finished
	// but not yet retired.
	ringSize = 64
)

// helperOverride, when non-negative, replaces the helper count derived from
// GOMAXPROCS; tests set it (export_test.go).
var helperOverride = -1

// joinHelpers returns the number of helpers a sequential join starts at its
// first leaf pair: one per spare core, at most maxHelpers, none at
// GOMAXPROCS=1.
func joinHelpers() int {
	helpers := min(runtime.GOMAXPROCS(0)-1, maxHelpers)
	if helperOverride >= 0 {
		helpers = min(helperOverride, maxHelpers)
	}
	return max(helpers, 0)
}

type jobKind uint8

const (
	sweepJob jobKind = iota // a leaf x leaf sweep
	knnJob                  // a kNN leaf group
)

// leafJob is one unit of leaf work and, once run, its output.
type leafJob struct {
	kind jobKind
	// nr is the R leaf; ns the S leaf of a sweep job.
	nr, ns *rtree.Node
	// rect is a sweep job's search space: its parents' intersection.
	rect geom.Rect
	// st, group, ri and base describe a kNN job: the run's state, the band's
	// leaf pairs of R leaf nr, nr's node index and its first item.
	st    *knnState
	group []knnPair
	ri    int32
	base  int
	// out holds a sweep job's pairs in sweep order and n their number; a
	// counting join leaves out empty.  local holds the job's counters.
	out   []Pair
	n     int
	local metrics.Local
	// done is set by the job's runner once out and local are final.  It is
	// stored under the crew's mu, so a parked coordinator cannot miss it,
	// and loaded without it.
	done atomic.Bool
}

// crew is one join's ring of jobs and the state its helpers share with the
// coordinator.  Jobs [head, next) of the ring are claimed (some finished),
// [next, tail) wait for a runner.  Crews are pooled: a warm join allocates
// nothing for its helpers.
type crew struct {
	mu sync.Mutex
	// work parks helpers until a job is queued or the crew quits; idle parks
	// the coordinator until a helper finishes its head job.
	work, idle sync.Cond
	jobs       [ringSize]leafJob
	// head is the oldest job not yet retired; only the coordinator uses it.
	head int
	// tail is the next free slot.  The coordinator, its only writer, reads
	// it without the lock.
	tail int
	next int //repro:guardedBy mu
	// parked counts helpers waiting on work; waiting says the coordinator
	// waits on idle.
	parked  int  //repro:guardedBy mu
	waiting bool //repro:guardedBy mu
	quit    bool //repro:guardedBy mu
	// helpers counts the helpers started and not yet gone.
	helpers int //repro:guardedBy mu
	// slots counts the helpers that took a scratch slot.
	slots   int //repro:guardedBy mu
	scratch [maxHelpers]leafScratch
	// The leaf stage's parameters, fixed for the join: keep is unset when
	// the join counts its pairs instead of building them.
	eps, eps2      float64
	restrict, keep bool
}

// crewPool holds idle crews with their grown buffers.  It is a channel, not
// a sync.Pool, which a garbage collection would empty between joins.  It
// needs one crew per sequential join running at once; 16 covers a server's
// admitted joins on a small host, and a crew that finds the pool full is
// dropped.
var crewPool = make(chan *crew, 16)

// getCrew returns an idle crew, or a new one.
func getCrew() *crew {
	select {
	case c := <-crewPool:
		return c
	default:
		c := new(crew)
		c.work.L = &c.mu
		c.idle.L = &c.mu
		return c
	}
}

// crewHandoff passes a crew to the helper started for it.  A helper is
// started as `go runHelper()`, a call with no arguments and no closure, so
// starting one allocates nothing once the runtime has a dead goroutine to
// reuse; it then takes whichever crew is waiting.  Every send is matched by
// one start, so each crew gets as many helpers as it sent.  A send that
// finds the buffer full starts no helper (startCrew); 64 is more than the
// helpers of 16 pooled crews.
var crewHandoff = make(chan *crew, 64)

func runHelper() { (<-crewHandoff).help() }

// help is a helper's loop: claim the oldest queued job, run it, mark it done,
// until the crew quits.
func (c *crew) help() {
	c.mu.Lock()
	sc := &c.scratch[c.slots]
	c.slots++
	for {
		for c.next == c.tail && !c.quit {
			c.parked++
			c.work.Wait()
			c.parked--
		}
		if c.quit {
			break
		}
		j := &c.jobs[c.next%ringSize]
		c.next++
		c.mu.Unlock()
		c.run(j, sc)
		c.mu.Lock()
		j.done.Store(true)
		if c.waiting {
			c.idle.Signal()
		}
	}
	c.helpers--
	c.idle.Signal()
	c.mu.Unlock()
}

// run executes job j with scratch sc.
func (c *crew) run(j *leafJob, sc *leafScratch) {
	switch j.kind {
	case sweepJob:
		rect := &j.rect
		if !c.restrict {
			rect = nil
		}
		j.out, j.n = joinLeaves(j.nr, j.ns, rect, c.eps, c.eps2, &sc.sweepScratch, c.keep, j.out[:0], &j.local)
	case knnJob:
		j.st.leafGroup(j.nr, j.base, j.group, sc, &j.local)
	}
}

// crewed reports whether the join's leaf work goes to the crew, starting the
// crew at the join's first leaf pair when it may start helpers.
//
//repro:hotpath
func (e *executor) crewed() bool {
	if e.crew == nil {
		if e.helpers == 0 {
			return false
		}
		e.startCrew()
	}
	return true
}

// startCrew takes a crew from the pool and starts the join's helpers.
func (e *executor) startCrew() {
	c := getCrew()
	c.eps, c.eps2 = e.eps, e.eps2
	c.restrict, c.keep = !e.opts.DisableRestriction, !e.counting()
	started := 0
	for range e.helpers {
		select {
		case crewHandoff <- c:
			started++
			go runHelper()
		default:
			// Every earlier send has its helper on the way; with the
			// handoff full, run with fewer.
		}
	}
	c.mu.Lock()
	c.helpers = started
	c.mu.Unlock()
	e.crew = c
}

// slot returns the free job slot at the ring's tail, advancing the ring
// until there is one; it returns nil when the join stopped on the way.
//
//repro:hotpath
func (e *executor) slot() *leafJob {
	for e.crew != nil && e.crew.tail-e.crew.head == ringSize {
		e.advance()
	}
	if e.crew == nil {
		return nil
	}
	return &e.crew.jobs[e.crew.tail%ringSize]
}

// publish makes the job filled in at the tail claimable and wakes a parked
// helper for it.
//
//repro:hotpath
func (e *executor) publish() {
	c := e.crew
	c.mu.Lock()
	c.jobs[c.tail%ringSize].done.Store(false)
	c.tail++
	if c.parked > 0 {
		c.work.Signal()
	}
	c.mu.Unlock()
}

// retireFinished retires head jobs for as long as they are finished, without
// waiting.
//
//repro:hotpath
func (e *executor) retireFinished() {
	for c := e.crew; c != nil && c.head < c.tail; c = e.crew {
		h := &c.jobs[c.head%ringSize]
		if !h.done.Load() {
			return
		}
		e.retire(h)
	}
}

// drain retires every queued job; after it the ring is empty, or the join
// stopped and the crew is gone.
func (e *executor) drain() {
	for e.crew != nil && e.crew.head < e.crew.tail {
		e.advance()
	}
}

// advance makes one step towards retiring the head job: it retires the head
// once it is finished; while it is not, it runs the oldest unclaimed job
// itself — the head, or a later one while a helper holds the head — and
// parks only on a head a helper holds when nothing is left to claim.
func (e *executor) advance() {
	c := e.crew
	h := &c.jobs[c.head%ringSize]
	c.mu.Lock()
	if c.next < c.tail && (c.next == c.head || !h.done.Load()) {
		j := &c.jobs[c.next%ringSize]
		c.next++
		c.mu.Unlock()
		c.run(j, &e.arena.leaf)
		j.done.Store(true)
		if j != h {
			return
		}
	} else {
		for !h.done.Load() {
			c.waiting = true
			c.idle.Wait()
		}
		c.waiting = false
		c.mu.Unlock()
	}
	e.retire(h)
}

// retire finishes head job j on the coordinator: a sweep job's pairs are
// emitted, a kNN job's leaf bound is tightened, and the job's counters are
// added.  A stopped join drops the job and every one behind it, and
// dismisses the crew: no pair reaches OnPair after the stop is seen.
//
//repro:hotpath
func (e *executor) retire(j *leafJob) {
	e.crew.head++
	if e.stopped() {
		e.dismiss()
		return
	}
	switch j.kind {
	case sweepJob:
		e.emitLeaf(j.out, j.n)
	case knnJob:
		j.st.tighten(j.ri, &e.local)
	}
	j.local.FlushTo(e.metrics)
}

// dismiss ends the crew's part in the join: the helpers quit — one running a
// job finishes it, none claims another — and once they are gone the crew,
// reset, goes back to the pool.  So no helper outlives its join, and the
// join starts no other crew: the rest of it, if any, runs inline.  Safe
// without a crew.
func (e *executor) dismiss() {
	e.helpers = 0
	c := e.crew
	if c == nil {
		return
	}
	e.crew = nil
	c.mu.Lock()
	c.quit = true
	c.work.Broadcast()
	for c.helpers > 0 {
		c.idle.Wait()
	}
	c.head, c.tail, c.next = 0, 0, 0
	c.quit, c.slots = false, 0
	c.mu.Unlock()
	for i := range c.jobs {
		j := &c.jobs[i]
		j.nr, j.ns, j.st, j.group = nil, nil, nil, nil
		j.local = metrics.Local{} // a dropped job's counters
	}
	select {
	case crewPool <- c:
	default:
	}
}
