package join

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/sweep"
)

// ParallelOptions configures ParallelJoin.
type ParallelOptions struct {
	// Options are the per-worker join options; the method must be one of the
	// tree-based algorithms (SJ1-SJ5).  Each worker receives its own LRU
	// buffer of Options.BufferBytes / Workers bytes (but at least one page),
	// modelling a partitioned buffer pool.
	Options Options
	// Workers is the number of concurrent workers; 0 means GOMAXPROCS.
	// Workers is clamped to the number of tasks, so small joins never spin up
	// idle goroutines with starved buffer partitions.
	Workers int
	// Strategy selects how workers take the tasks of the spatial schedule.
	// The default, PartitionStealing, has every worker take the next task
	// of the whole schedule from one shared cursor, so a worker is idle only
	// once no task is left; PartitionSpatial has each worker run its own
	// part of the schedule, which makes the per-worker snapshots
	// reproducible and the cost-model speedup of a simulated N-worker
	// execution meaningful on any machine.
	Strategy PartitionStrategy
	// MinTasksPerWorker, when above 1, makes the planner keep splitting
	// tasks one level deeper until it has at least MinTasksPerWorker tasks
	// per worker (or only leaf-level tasks remain).  Bulk-loaded trees have
	// root fan-outs near the page capacity, so the root level often yields a
	// handful of giant tasks; finer tasks cost extra planning work but let
	// the spatial schedule balance load and give each worker enough
	// neighbouring tasks to share subtrees.  0 or 1 keeps the default:
	// split only while there are fewer tasks than workers.  The split
	// rounds run on the calling goroutine before any worker starts, so a
	// fine granularity lengthens the serial planning phase.
	MinTasksPerWorker int
}

// parallelTask is one independent sub-join: the pair of subtrees referenced
// by two intersecting directory entries.
type parallelTask struct {
	er, es rtree.Entry
}

// parallelWorker is the resident state of one ParallelJoin worker: its
// private collector, its partition of the buffer pool (LRU plus tracker) and
// its pair buffer.  Workers are recycled through a sync.Pool so repeated
// joins (benchmarks, experiment sweeps, servers running one join per
// request) reuse the LRU frame pool, the collector and the grown pair buffer
// instead of rebuilding them per join.
type parallelWorker struct {
	col     *metrics.Collector
	lru     *buffer.LRU
	tracker *buffer.Tracker
	pairs   []Pair
	tasks   int
	stolen  int // tasks the spatial schedule gave another worker
}

var parallelWorkerPool sync.Pool

// planState is the planning-side buffer state (LRU plus tracker), recycled
// through a pool like the worker state so repeated joins do not rebuild the
// frame pool per run.
type planState struct {
	lru     *buffer.LRU
	tracker *buffer.Tracker
}

var planPool sync.Pool

// getPlanState returns a plan tracker backed by a buffer of bufferBytes,
// charging accesses to col.
func getPlanState(bufferBytes, pageSize int, usePathBuffer bool, col *metrics.Collector) *planState {
	v := planPool.Get()
	if v == nil {
		lru := buffer.NewLRUForBytes(bufferBytes, pageSize)
		return &planState{lru: lru, tracker: buffer.NewTracker(lru, col, pageSize, usePathBuffer)}
	}
	p := v.(*planState)
	p.lru.ReconfigureForBytes(bufferBytes, pageSize)
	p.tracker.Reconfigure(col, pageSize, usePathBuffer)
	return p
}

// getParallelWorker returns a worker configured for this run's buffer
// partition, reusing pooled state when available.
func getParallelWorker(bufferBytes, pageSize int, usePathBuffer bool) *parallelWorker {
	v := parallelWorkerPool.Get()
	if v == nil {
		col := metrics.NewCollector()
		lru := buffer.NewLRUForBytes(bufferBytes, pageSize)
		return &parallelWorker{
			col:     col,
			lru:     lru,
			tracker: buffer.NewTracker(lru, col, pageSize, usePathBuffer),
		}
	}
	w := v.(*parallelWorker)
	w.col.Reset()
	w.lru.ReconfigureForBytes(bufferBytes, pageSize)
	w.tracker.Reconfigure(w.col, pageSize, usePathBuffer)
	w.pairs = w.pairs[:0]
	return w
}

// ParallelJoin computes the MBR-spatial-join of two trees by partitioning the
// pairs of qualifying directory entries across workers, each of which runs
// the configured sequential algorithm on its partition.  This implements the
// parallel execution the paper lists as future work (section 6, referring to
// parallel R-trees); it is an extension beyond the published algorithms.
//
// The execution shares one thing in steady state: under PartitionStealing,
// the cursor over the schedule's Hilbert-contiguous regions
// (scheduleSpatial), one atomic add per task.  Every worker owns its
// collector, its LRU buffer and its result buffer; under PartitionSpatial it
// also owns its run of regions.  Worker state is resident: collectors, LRU
// frame pools, trackers and pair buffers are recycled through a pool across
// joins, so repeated joins reach a steady state without per-run buffer
// construction.
// The per-worker results and counters are merged into the shared result
// exactly once at the end, and the per-worker snapshots are published as
// Result.WorkerMetrics / Result.WorkerTasks for load-balance diagnostics.
// When the root fan-out is smaller than the worker count, the planner splits
// the qualifying pairs one level deeper (repeatedly, while it helps) so
// every worker has work to do.
//
// A physical read fault in any worker stops every worker at its next node
// pair, as it stops Join: the workers read no further pages, take no
// further tasks and hand OnPair no further pairs, and the join returns the
// wrapped error and no Result.
//
// The result set is identical to the sequential join; the order of the
// materialised pairs depends on the scheduling (SortPairs restores a
// canonical order).  OnPair, if set, is invoked while the workers run,
// serialised by a mutex, so streaming consumers keep O(1) memory with
// DiscardPairs — opting into the callback is what buys back that one
// contention point.  The reported metrics are the sums over all workers plus
// the planning costs (also published separately as Result.PlanMetrics), so
// disk accesses are those of a partitioned buffer rather than one shared
// buffer.  Planning reads go through their own LRU buffer of
// Options.BufferBytes — the whole buffer, since planning precedes the
// partitioning — so a node inspected for several qualifying pairs is charged
// one disk read, exactly as the sequential join would charge it.  When the
// planner splits, the node pairs it expands are charged the restriction and
// sweep comparisons the CPU-tuned sequential algorithms would charge, and
// their counted reads the sorting (but no PairsTested accounting), so CPU
// measures are comparable only between runs with the same effective task
// depth.
func ParallelJoin(r, s *rtree.Tree, popts ParallelOptions) (*Result, error) {
	if r == nil || s == nil {
		return nil, ErrNilTree
	}
	if r.PageSize() != s.PageSize() {
		return nil, ErrPageSizeMismatch
	}
	opts := popts.Options
	if opts.Method == NestedLoop {
		return nil, ErrParallelNestedLoop
	}
	if err := opts.Predicate.Validate(); err != nil {
		return nil, err
	}
	switch popts.Strategy {
	case PartitionStealing, PartitionSpatial:
	default:
		return nil, fmt.Errorf("join: %w: %v", ErrUnknownPartitionStrategy, popts.Strategy)
	}
	// eps is the within-distance expansion the planner applies to every
	// R-side rectangle test; zero for the other predicates, keeping their
	// plans bit-identical to the pre-predicate code.
	var eps float64
	if opts.Predicate.Kind == PredWithinDist {
		eps = opts.Predicate.Epsilon
	}
	knn := opts.Predicate.Kind == PredKNN
	if r.Root().IsLeaf() || s.Root().IsLeaf() {
		// Trees this small offer no parallelism; run the sequential join.
		// No workers ran, so the whole cost is "planning": PlanMetrics =
		// Metrics keeps the invariant that Metrics minus PlanMetrics is the
		// sum of WorkerMetrics, and cost-model consumers (ParallelEstimate)
		// see the sequential cost instead of zero.
		res, err := Join(r, s, opts)
		if err == nil {
			res.PlanMetrics = res.Metrics
		}
		return res, err
	}
	if opts.Context != nil && opts.Context.Err() != nil {
		return nil, cancelErr(opts.Context)
	}
	watch := newCancelWatch(opts.Context)
	defer watch.stop()
	workers := popts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}

	collector := opts.Collector
	if collector == nil {
		collector = metrics.NewCollector()
	}
	before := collector.Snapshot()

	// Planning: enumerate all pairs of root entries whose rectangles
	// intersect; each is an independent sub-join of two subtrees.  Planning
	// reads (the roots and any nodes opened while splitting) go through a
	// plan tracker backed by the full configured buffer — planning runs
	// before the buffer is partitioned across workers — so a child node that
	// qualifies in several pairs is charged one disk read, not one per pair.
	var plan metrics.Local
	ps := getPlanState(opts.BufferBytes, r.PageSize(), opts.UsePathBuffer, collector)
	planTracker := ps.tracker
	attachReaders(planTracker, r, s, opts)
	r.AccessNode(planTracker, r.Root())
	s.AccessNode(planTracker, s.Root())
	var tasks []parallelTask
	if knn {
		// kNN tasks pair one R root entry with the whole of S: every S item
		// is a potential neighbour of every R item, so the intersection test
		// does not partition the work — disjointness in R does.  The per-task
		// result sets are disjoint in R and merge by concatenation under any
		// schedule.
		sRoot := rtree.Entry{Rect: s.Root().MBR(), Child: s.Root()}
		for _, er := range r.Root().Entries {
			tasks = append(tasks, parallelTask{er: er, es: sRoot})
		}
	} else {
		var comps int64
		for _, er := range r.Root().Entries {
			for _, es := range s.Root().Entries {
				ok, cost := geom.IntersectsCost(expandEps(er.Rect, eps), es.Rect)
				comps += cost
				if ok {
					tasks = append(tasks, parallelTask{er: er, es: es})
				}
			}
		}
		plan.Comparisons += comps
	}
	// With fewer qualifying root pairs than workers (times the configured
	// granularity), split one level deeper so the task list offers enough
	// parallelism; repeat while it helps.
	minTasks := workers
	if popts.MinTasksPerWorker > 1 {
		minTasks = workers * popts.MinTasksPerWorker
	}
	var sc splitScratch
	for len(tasks) > 0 && len(tasks) < minTasks && !watch.cancelled() {
		var split []parallelTask
		var ok bool
		if knn {
			split, ok = splitTasksKNN(r, tasks, planTracker)
		} else {
			split, ok = splitTasks(r, s, tasks, planTracker, &plan, &sc, eps)
		}
		if !ok {
			break
		}
		tasks = split
	}
	plan.FlushTo(collector)
	planErr := planTracker.ReadErr()
	planPool.Put(ps)
	if watch.cancelled() {
		return nil, cancelErr(opts.Context)
	}
	if planErr != nil {
		return nil, fmt.Errorf("join: physical page read failed while planning: %w", planErr)
	}

	res := &Result{Method: opts.Method, Predicate: opts.Predicate}
	res.PlanMetrics = collector.Snapshot().Sub(before)
	if len(tasks) == 0 {
		res.Metrics = res.PlanMetrics
		return res, nil
	}

	if workers > len(tasks) {
		workers = len(tasks)
	}
	// The estimator reads only the trees' catalog statistics, never the
	// unvisited child pages, so estimation charges no I/O.  The estimates are
	// (io, cpu) vectors: the region packing balances the components
	// separately, while the per-worker estimates use the io+cpu totals.
	vecs := newTaskEstimator(r, s, opts.Predicate).vectors(tasks)
	est := scalars(vecs)
	schedule := scheduleSpatial(r, s, tasks, vecs, workers)
	// Publish the predicted per-worker loads of the schedule so the
	// experiments can report estimator error against the measured per-worker
	// costs.  The schedule's runs are concatenated in worker order: worker
	// w's own run is order[bounds[w]:bounds[w+1]].  Under spatial a worker
	// walks its own run; under stealing every worker takes the next position
	// of the whole concatenation from one shared cursor.
	res.WorkerEstSeconds = make([]float64, workers)
	order := make([]int32, 0, len(tasks))
	bounds := make([]int, workers+1)
	for w, run := range schedule {
		for _, i := range run {
			res.WorkerEstSeconds[w] += est[i]
		}
		order = append(order, run...)
		bounds[w+1] = len(order)
	}
	shared := popts.Strategy == PartitionStealing
	var cursor atomic.Int64
	// halt is the join-wide stop every worker's tracker shares: the tracker
	// whose physical read fails trips it, and from then on no worker reads a
	// page or takes a task (executor.stopped).
	var halt atomic.Bool
	perWorkerBuffer := opts.BufferBytes / workers
	if opts.BufferBytes > 0 && perWorkerBuffer < r.PageSize() {
		// A configured buffer smaller than one page per worker would silently
		// disable buffering; give each worker at least one page instead.
		perWorkerBuffer = r.PageSize()
	}

	// Workers accumulate pairs and counters privately; everything is merged
	// once below.  Only an OnPair callback reintroduces a shared lock, since
	// the caller asked to observe the stream as it is produced.
	ws := make([]*parallelWorker, workers)
	workerCounts := make([]int, workers)
	onPair := opts.OnPair
	if onPair != nil {
		var mu sync.Mutex
		inner := onPair
		onPair = func(p Pair) {
			mu.Lock()
			inner(p)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws[w] = getParallelWorker(perWorkerBuffer, r.PageSize(), opts.UsePathBuffer)
		attachReaders(ws[w].tracker, r, s, opts)
		ws[w].tracker.SetHalt(&halt)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := ws[w]
			ar := arenaPool.Get().(*arena)
			e := &executor{
				r:       r,
				s:       s,
				tracker: worker.tracker,
				metrics: worker.col,
				opts:    opts,
				arena:   ar,
				cancel:  watch,
				onPair:  onPair,
				discard: opts.DiscardPairs,
				pairs:   worker.pairs,
				eps:     eps,
				eps2:    eps * eps,
			}
			lo, hi := bounds[w], bounds[w+1]
			p, end := lo, hi
			if shared {
				end = len(order)
			}
			var ran, stolen int
			for !e.stopped() {
				if shared {
					p = int(cursor.Add(1)) - 1
				}
				if p >= end {
					break
				}
				if p < lo || p >= hi {
					stolen++
				}
				t := tasks[order[p]]
				p++
				ran++
				if knn {
					// The best-first traversal reads its pages on pop,
					// including the task's two subtree roots.
					e.knnFrom(t.er.Child, t.es.Child)
					continue
				}
				rect, ok := e.expandR(t.er.Rect).Intersection(t.es.Rect)
				if !ok {
					continue
				}
				e.readPair(t.er.Child, t.es.Child)
				switch opts.Method {
				case SJ1:
					e.sj1(t.er.Child, t.es.Child)
				case SJ2:
					e.sj2(t.er.Child, t.es.Child, rect, 0)
				default:
					e.sweepJoin(t.er.Child, t.es.Child, rect, opts.Method, 0)
				}
			}
			e.local.FlushTo(worker.col)
			arenaPool.Put(ar)
			worker.tasks, worker.stolen = ran, stolen
			worker.pairs = e.pairs
			workerCounts[w] = e.count
		}(w)
	}
	wg.Wait()

	res.WorkerMetrics = make([]metrics.Snapshot, workers)
	res.WorkerTasks = make([]int, workers)
	var readErr error
	for w := 0; w < workers; w++ {
		worker := ws[w]
		res.WorkerMetrics[w] = worker.col.Snapshot()
		res.WorkerTasks[w] = worker.tasks
		res.StolenTasks += worker.stolen
		if err := worker.tracker.ReadErr(); err != nil && readErr == nil {
			readErr = err
		}
		collector.AddSnapshot(res.WorkerMetrics[w])
		res.Count += workerCounts[w]
		if !opts.DiscardPairs {
			res.Pairs = append(res.Pairs, worker.pairs...)
		}
		// The pair buffer has been copied out (or is empty); the worker and
		// its grown state go back to the pool for the next join.
		parallelWorkerPool.Put(worker)
	}
	res.Metrics = collector.Snapshot().Sub(before)
	// Worker state went back to the pools above even on cancellation; only
	// the assembled result is withheld, deterministically.
	if opts.Context != nil && opts.Context.Err() != nil {
		return nil, cancelErr(opts.Context)
	}
	if readErr != nil {
		return nil, fmt.Errorf("join: physical page read failed: %w", readErr)
	}
	return res, nil
}

// attachReaders wires the measured-I/O hooks (per-tree PageReaders and the
// optional shared PageCache) into a tracker, so ParallelJoin's planning and
// worker trackers follow the same physical-read discipline as the
// sequential join.
func attachReaders(tr *buffer.Tracker, r, s *rtree.Tree, opts Options) {
	if opts.PageReaderR != nil {
		tr.SetPageReader(r.ID(), opts.PageReaderR)
	}
	if opts.PageReaderS != nil {
		tr.SetPageReader(s.ID(), opts.PageReaderS)
	}
	if opts.PageCache != nil {
		tr.SetPageCache(opts.PageCache)
	}
}

// splitScratch holds the buffers splitTasks reuses across split rounds: the
// restricted, x-sorted entry indices and rectangle sequences of the two nodes
// being expanded and the sweep's output pairs, so repeated split rounds
// allocate nothing per node pair.
type splitScratch struct {
	rIdx, sIdx     []int32
	rRects, sRects []geom.Rect
	pairs          []sweep.Pair
}

// splitTasks runs one split round: every task whose two subtrees are
// directory nodes is replaced by the qualifying pairs of their children.  It
// reports false when nothing could be split (all tasks reference leaf
// nodes), in which case the task list is returned unchanged.  The two nodes
// of an expanded task are read through the plan tracker in task order, and
// the restriction and sweep comparisons are charged to plan (but no
// PairsTested accounting).
//
// The qualifying child pairs are found the way the CPU-tuned sequential
// algorithms find them — restrict both nodes' xl-orders to the parents'
// intersection rectangle and run the sorted intersection test — so splitting
// a level of bulk-loaded trees with page-capacity fan-outs costs far fewer
// planning comparisons per node pair than the n² of the naive pairing.
//
// Splitting preserves the result set: a child pair whose rectangles do not
// intersect cannot contribute any result, and the search-space restriction
// never removes entries that take part in an intersecting pair.
func splitTasks(r, s *rtree.Tree, tasks []parallelTask, tracker *buffer.Tracker, plan *metrics.Local, sc *splitScratch, eps float64) ([]parallelTask, bool) {
	split := false
	out := make([]parallelTask, 0, 2*len(tasks))
	for _, t := range tasks {
		if t.er.Child.IsLeaf() || t.es.Child.IsLeaf() {
			out = append(out, t)
			continue
		}
		inter, ok := expandEps(t.er.Rect, eps).Intersection(t.es.Rect)
		if !ok {
			continue // qualifying tasks always intersect; degenerate guard
		}
		split = true
		nr, ns := t.er.Child, t.es.Child
		readSorted(r, tracker, nr, plan)
		readSorted(s, tracker, ns, plan)
		sc.rIdx, sc.rRects = restrictSorted(nr, &inter, eps, sc.rIdx[:0], sc.rRects[:0], plan)
		sc.sIdx, sc.sRects = restrictSorted(ns, &inter, 0, sc.sIdx[:0], sc.sRects[:0], plan)
		sc.pairs = sweep.AppendPairs(sc.rRects, sc.sRects, plan, sc.pairs[:0])
		for _, p := range sc.pairs {
			out = append(out, parallelTask{er: nr.Entries[sc.rIdx[p.R]], es: ns.Entries[sc.sIdx[p.S]]})
		}
	}
	if !split {
		return tasks, false
	}
	return out, true
}

// splitTasksKNN runs one split round of a kNN plan: every task whose R
// subtree root is a directory node is replaced by one task per child entry,
// against the same unchanged S side.  No predicate tests run — every R item
// has neighbours, so every child task qualifies unconditionally and the
// round charges only the read of the expanded R node.  The output stays
// disjoint in R, which is the property the merge relies on.
func splitTasksKNN(r *rtree.Tree, tasks []parallelTask, tracker *buffer.Tracker) ([]parallelTask, bool) {
	split := false
	out := make([]parallelTask, 0, 2*len(tasks))
	for _, t := range tasks {
		if t.er.Child.IsLeaf() {
			out = append(out, t)
			continue
		}
		split = true
		r.AccessNode(tracker, t.er.Child)
		for _, er := range t.er.Child.Entries {
			out = append(out, parallelTask{er: er, es: t.es})
		}
	}
	if !split {
		return tasks, false
	}
	return out, true
}

// ErrParallelNestedLoop is returned when ParallelJoin is asked to run the
// index-free nested-loop baseline, which it does not support.
var ErrParallelNestedLoop = errors.New("join: ParallelJoin supports only the tree-based methods SJ1-SJ5")

// ErrUnknownPartitionStrategy is returned when ParallelOptions.Strategy is
// not one of the defined strategies.
var ErrUnknownPartitionStrategy = errors.New("unknown partition strategy")
