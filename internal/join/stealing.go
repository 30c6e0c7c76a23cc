package join

import (
	"math"
	"sync"
	"sync/atomic"
)

// Locality-preserving work stealing (PartitionStealing).
//
// Every worker owns the Hilbert-contiguous region queue the spatial schedule
// assigned to it and consumes it front to back, so as long as the estimates
// hold, execution is exactly the spatial schedule: contiguous Hilbert runs
// per worker, private-buffer reuse intact.  When a worker drains its queue it
// becomes a thief: it picks the victim with the largest remaining estimated
// load and takes half of the *tail* of the victim's remaining run.  The
// victim keeps the prefix it is already sweeping — its buffer keeps the
// subtrees of that prefix resident — and the thief receives a run that is
// itself Hilbert-contiguous, so locality degrades by one region split per
// steal instead of collapsing to an interleaved shared queue.  Steals move
// whole runs between queues under per-queue mutexes; a task is therefore
// executed exactly once regardless of how steals and pops interleave (the
// race/property tests in stealing_test.go pin this).
//
// Workers run at whatever pace the host gives them, so which worker steals
// what — and with it the counted per-worker split — depends on the host.
// That is the point of stealing: it balances wall clock.  The counted
// balance the experiments report belongs to PartitionSpatial, the same loop
// with stealing switched off.

// stealQueue is one worker's region queue.  The owner pops from the head;
// thieves remove the tail half of the remaining run.  All fields are guarded
// by mu except approx, an atomically readable copy of load that victim
// selection reads without locking every queue.
type stealQueue struct {
	mu     sync.Mutex
	tasks  []int32 // task indices in Hilbert order; tasks[head:] remain
	head   int
	load   float64       // remaining estimated seconds of tasks[head:]
	approx atomic.Uint64 // float64 bits of load, for lock-free victim scans

	// Owner-side steal accounting (written only by the owning worker).
	steals      int // successful steal operations performed as thief
	stolenTasks int // tasks acquired through stealing
}

// newStealQueues builds one queue per worker from the spatial schedule and
// the per-task estimates.  The schedule slices are private per worker, so the
// queues can adopt them without copying.
func newStealQueues(schedule [][]int32, est []float64) []*stealQueue {
	queues := make([]*stealQueue, len(schedule))
	for w, run := range schedule {
		q := &stealQueue{tasks: run}
		var load float64
		for _, i := range run {
			load += est[i]
		}
		q.setLoadLocked(load)
		queues[w] = q
	}
	return queues
}

// setLoadLocked updates load and its atomic shadow; the caller holds mu (or
// has exclusive access during construction).
func (q *stealQueue) setLoadLocked(v float64) {
	if v < 0 {
		// Guard against float drift when subtracting the last task.
		v = 0
	}
	q.load = v
	q.approx.Store(math.Float64bits(v))
}

// remainingApprox returns the queue's remaining estimated load without
// locking; victim selection tolerates the slight staleness.
func (q *stealQueue) remainingApprox() float64 {
	return math.Float64frombits(q.approx.Load())
}

// pop removes the next task from the head of the queue, preserving the
// Hilbert order of the owner's region.
func (q *stealQueue) pop(est []float64) (int32, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= len(q.tasks) {
		return 0, false
	}
	i := q.tasks[q.head]
	q.head++
	q.setLoadLocked(q.load - est[i])
	return i, true
}

// stealTail removes the latter half of the queue's remaining run into buf and
// returns it with its estimated load.  The victim keeps the first half — the
// prefix of its Hilbert run it is already processing.  Runs of fewer than two
// tasks are not stealable: the victim's last task stays with its owner, which
// bounds the steal churn at the very tail of the join.  A removed run is
// counted in flight before it leaves, under the victim's lock, so a thief
// that sees the victim's reduced load also sees the move in transit.
func (q *stealQueue) stealTail(buf []int32, est []float64, flight *stealFlight) ([]int32, float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	remaining := len(q.tasks) - q.head
	if remaining < 2 {
		return buf[:0], 0
	}
	flight.begin()
	n := remaining / 2
	cut := len(q.tasks) - n
	buf = append(buf[:0], q.tasks[cut:]...)
	q.tasks = q.tasks[:cut]
	var load float64
	for _, i := range buf {
		load += est[i]
	}
	q.setLoadLocked(q.load - load)
	return buf, load
}

// install replaces the (drained) queue's run with a stolen one.  The run is
// copied out of the thief's scratch buffer so the queue stays stealable by
// other workers without aliasing.
func (q *stealQueue) install(run []int32, load float64) {
	q.mu.Lock()
	q.tasks = append(q.tasks[:0], run...)
	q.head = 0
	q.setLoadLocked(load)
	q.mu.Unlock()
}

// stealFlight tracks stolen runs in transit between queues.  A stolen run is
// invisible while it moves (removed from the victim, not yet installed in the
// thief); a thief whose victim scan comes up empty must therefore wait for
// in-transit moves to land before concluding the tail is unstealable —
// otherwise a worker could exit early while a large run is mid-flight and its
// new owner would finish it alone.  The wait parks on a condition variable
// (the PR-4 implementation re-scanned in a runtime.Gosched loop, burning a
// core for as long as a move was in progress): moving counts the runs in
// transit and seq bumps whenever one lands, so settle can distinguish
// "rescan, something changed" from "nothing in transit, the conclusion is
// final".  Only real moves are counted: a steal attempt that finds its
// victim drained moves nothing and wakes nobody.
type stealFlight struct {
	mu     sync.Mutex
	cond   sync.Cond
	moving int
	seq    uint64
}

func newStealFlight() *stealFlight {
	f := &stealFlight{}
	f.cond.L = &f.mu
	return f
}

// begin records a run leaving a victim's queue (stealTail calls it under
// the victim's lock).
func (f *stealFlight) begin() {
	f.mu.Lock()
	f.moving++
	f.mu.Unlock()
}

// finishMove records a run landed in the thief's queue and wakes settled
// thieves: the landing may expose stealable work, or leave moving at 0,
// making their empty scan final.
func (f *stealFlight) finishMove() {
	f.mu.Lock()
	f.moving--
	f.seq++
	f.cond.Broadcast()
	f.mu.Unlock()
}

// settle is called by a thief that found nothing stealable.  It returns
// false when no move is in transit — the conclusion is final, the thief can
// exit.  Otherwise it parks until a move lands and returns true:
// the landed run may be stealable (or a skipped victim refilled), so the
// thief must rescan from scratch.
func (f *stealFlight) settle() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.moving == 0 {
		return false
	}
	s := f.seq
	for f.moving > 0 && f.seq == s {
		f.cond.Wait()
	}
	return true
}

// steal refills worker w's drained queue from the victim with the largest
// remaining estimated load.  It returns false when no stealable work
// remains: every other queue is either empty or down to a single task, which
// its owner will finish.  Victim selection reads the atomic load shadows, so
// the scan takes no locks; only the chosen victim is locked, and never while
// holding the thief's own lock, so thieves cannot deadlock on each other.
func steal(queues []*stealQueue, w int, buf *[]int32, est []float64, flight *stealFlight) bool {
	skip := make([]bool, len(queues))
	for {
		victim, best := -1, 0.0
		for i, q := range queues {
			if i == w || skip[i] {
				continue
			}
			if l := q.remainingApprox(); l > best {
				best, victim = l, i
			}
		}
		if victim < 0 {
			if !flight.settle() {
				return false
			}
			// A run landed somewhere (or a skipped victim may have been
			// refilled); rescan from scratch.
			for i := range skip {
				skip[i] = false
			}
			continue
		}
		run, load := queues[victim].stealTail(*buf, est, flight)
		*buf = run
		if len(run) == 0 {
			// The victim drained (or shrank to one task) between the scan and
			// the lock; it can only shrink further, so skip it and rescan.
			// Nothing moved, so nobody is woken: with many workers, waking
			// every settled thief per failed attempt kept them rescanning
			// one-task queues instead of exiting.
			skip[victim] = true
			continue
		}
		self := queues[w]
		self.install(run, load)
		flight.finishMove()
		self.steals++
		self.stolenTasks += len(run)
		return true
	}
}
