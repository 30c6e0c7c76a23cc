package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/costmodel"
	"repro/internal/join"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Parallel join load balance (extension; the paper's future-work section).
// ---------------------------------------------------------------------------

// ParallelPageSize and ParallelBufferKB fix the configuration of the
// parallel-scaling experiment: the paper's recommended SJ4 at 4 KByte pages
// with a 128 KByte buffer, partitioned across the workers.
const (
	ParallelPageSize = storage.PageSize4K
	ParallelBufferKB = 128
)

// ParallelWorkerCounts are the worker counts swept by the experiment.
var ParallelWorkerCounts = []int{1, 2, 4, 8}

// ParallelRow summarises one ParallelJoin run: the total work, how evenly it
// spread across the workers and how much the partitioned buffer cost in
// extra I/O.  Skews are max/mean ratios over the per-worker snapshots
// (1.00 = perfectly balanced); the paper's cost measures are CPU comparisons
// and disk accesses, so those are the measures whose balance decides the
// parallel speedup.
type ParallelRow struct {
	Strategy     join.PartitionStrategy
	Workers      int
	Tasks        int
	Pairs        int
	DiskAccesses int64
	// DiskOverhead is the run's total disk accesses divided by the
	// sequential join's: the price of partitioning one shared buffer into
	// per-worker slices.  1.00 means the partitioning cost nothing.
	DiskOverhead float64
	// HitRate is the share of worker node accesses satisfied from a buffer,
	// the locality measure of the schedule.
	HitRate  float64
	TaskSkew float64 // max/mean sub-join tasks per worker
	CompSkew float64 // max/mean join comparisons per worker
	DiskSkew float64 // max/mean disk accesses per worker
	// TimeSkew is max/mean of the per-worker estimated execution times, the
	// balance measure the parallel critical path depends on: a worker can
	// trade I/O against CPU (the locality-driven schedules do), so neither
	// component skew alone decides whether the workers finish together.
	TimeSkew float64
	// StolenTasks is the number of tasks a worker ran that the spatial
	// schedule had given another worker (0 for the spatial schedule).
	StolenTasks int
	// EstSpeedup is the speedup in estimated execution time (the paper's
	// section-5 cost model) of the parallel run over the sequential SJ4 with
	// the same total buffer: sequential estimate divided by the parallel
	// critical path (planning cost plus the slowest worker's estimate).  This
	// is the measure a single-core benchmark machine cannot show in
	// wall-clock time.
	EstSpeedup float64
}

// TableParallel joins the main pair with ParallelJoin (SJ4) for each
// partition strategy (the spatial schedule and the shared queue) and worker
// count, and reports per-worker load-balance skew, buffer locality, the
// tasks run off their planned worker and the disk-access overhead over the
// sequential join, using the per-worker snapshots the parallel executor
// publishes.  The spatial rows are deterministic machine properties of the
// plan; the stealing rows depend on runtime scheduling and show what the
// shared queue's interleaving costs in locality.
func (s *Suite) TableParallel() []ParallelRow {
	r, t := s.mainPair(ParallelPageSize)
	seq := s.runJoin(r, t, join.SJ4, ParallelBufferKB, nil)
	seqEst := s.model.EstimateSnapshot(seq.Metrics, ParallelPageSize)
	var rows []ParallelRow
	for _, strategy := range join.PartitionStrategies {
		for _, w := range ParallelWorkerCounts {
			res, err := join.ParallelJoin(r, t, join.ParallelOptions{
				Options: join.Options{
					Method:        join.SJ4,
					BufferBytes:   ParallelBufferKB << 10,
					UsePathBuffer: s.cfg.UsePathBuffer,
					DiscardPairs:  true,
				},
				Workers: w,
				// The spatial schedule makes the per-worker split
				// deterministic, so its skew and estimated speedup are
				// reproducible properties of the plan rather than of
				// goroutine scheduling.
				Strategy: strategy,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: parallel join %v with %d workers: %v", strategy, w, err))
			}
			row := ParallelRow{
				Strategy:     strategy,
				Workers:      w,
				Pairs:        res.Count,
				DiskAccesses: res.Metrics.DiskAccesses(),
				HitRate:      res.WorkerBufferHitRate(),
				TaskSkew:     res.TaskSkew(),
				CompSkew:     res.ComparisonSkew(),
				DiskSkew:     res.DiskSkew(),
				TimeSkew:     res.TimeSkew(s.model, ParallelPageSize),
				StolenTasks:  res.StolenTasks,
			}
			for _, n := range res.WorkerTasks {
				row.Tasks += n
			}
			if seqDisk := seq.Metrics.DiskAccesses(); seqDisk > 0 {
				row.DiskOverhead = float64(res.Metrics.DiskAccesses()) / float64(seqDisk)
			}
			if par := ParallelEstimate(s.model, res, ParallelPageSize); par.TotalSeconds() > 0 {
				row.EstSpeedup = seqEst.TotalSeconds() / par.TotalSeconds()
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// MeanEstErrPct returns the mean over workers of |predicted - actual| /
// actual in per cent — predicted being the cost-model estimate of the
// worker's initial schedule (Result.WorkerEstSeconds) and actual the
// cost-model time of its measured counters.  It reports false when the
// result carries no predictions or no worker measured a positive cost.
// This is the estimator-fidelity measure shared by TableUpdates and the
// update benchmark.
func MeanEstErrPct(model costmodel.Model, res *join.Result, pageSize int) (float64, bool) {
	var errSum float64
	var counted int
	for w, predicted := range res.WorkerEstSeconds {
		actual := model.EstimateSnapshot(res.WorkerMetrics[w], pageSize).TotalSeconds()
		if actual <= 0 {
			continue
		}
		errSum += 100 * math.Abs(predicted-actual) / actual
		counted++
	}
	if counted == 0 {
		return 0, false
	}
	return errSum / float64(counted), true
}

// ParallelEstimate converts one ParallelJoin result into an estimated
// parallel execution time under the paper's cost model: the planning cost
// plus the estimate of the slowest worker, which is the critical path of the
// partitioned execution.
func ParallelEstimate(model costmodel.Model, res *join.Result, pageSize int) costmodel.Estimate {
	var worst costmodel.Estimate
	for _, m := range res.WorkerMetrics {
		if est := model.EstimateSnapshot(m, pageSize); est.TotalSeconds() > worst.TotalSeconds() {
			worst = est
		}
	}
	planEst := model.EstimateSnapshot(res.PlanMetrics, pageSize)
	return costmodel.Estimate{
		IOSeconds:  planEst.IOSeconds + worst.IOSeconds,
		CPUSeconds: planEst.CPUSeconds + worst.CPUSeconds,
	}
}

// PrintTableParallel writes the parallel load-balance rows grouped by
// partition strategy.
func PrintTableParallel(w io.Writer, rows []ParallelRow) {
	writeHeader(w, "Parallel join (SJ4, 4 KByte pages, 128 KB buffer): partition strategies")
	fmt.Fprintf(w, "%-12s %-8s %6s %8s %12s %9s %8s %10s %10s %10s %10s %7s %11s\n",
		"strategy", "workers", "tasks", "pairs", "disk acc", "overhead", "hit rate",
		"task skew", "comp skew", "disk skew", "time skew", "stolen", "est speedup")
	last := join.PartitionStrategy(-1)
	for _, row := range rows {
		if row.Strategy != last && last != join.PartitionStrategy(-1) {
			fmt.Fprintln(w)
		}
		last = row.Strategy
		fmt.Fprintf(w, "%-12s %-8d %6d %8d %12d %9.2f %8.2f %10.2f %10.2f %10.2f %10.2f %7d %11.2f\n",
			row.Strategy, row.Workers, row.Tasks, row.Pairs, row.DiskAccesses,
			row.DiskOverhead, row.HitRate, row.TaskSkew, row.CompSkew, row.DiskSkew,
			row.TimeSkew, row.StolenTasks, row.EstSpeedup)
	}
	fmt.Fprintln(w, "(skew = max/mean over the workers, 1.00 is perfectly balanced; time skew ="+
		"\n skew of per-worker estimated execution times, the critical-path balance;"+
		"\n overhead = disk accesses over the sequential join's; stolen = tasks a"+
		"\n worker took from the shared queue that the spatial schedule gave another;"+
		"\n est speedup = estimated sequential time over the parallel critical path,"+
		"\n section-5 cost model)")
}
