package experiments

import (
	"fmt"
	"io"

	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/rtree"
)

// ---------------------------------------------------------------------------
// Update-heavy workloads (extension): Hilbert-buffered update batches
// interleaved with parallel joins.
// ---------------------------------------------------------------------------

// UpdateRounds is the number of update-then-join rounds the experiment runs.
const UpdateRounds = 2

// UpdateWorkers is the worker count of the interleaved parallel joins.
const UpdateWorkers = 8

// UpdateBatchPercent is the share of each relation turned over per round:
// that many per cent of the live rectangles are deleted (oldest first) and
// the same number of fresh rectangles inserted through a Hilbert insertion
// buffer.
const UpdateBatchPercent = 10

// UpdateRow is one strategy's join after one update round.
type UpdateRow struct {
	// Round is the 1-based update round.
	Round    int
	Strategy join.PartitionStrategy
	// Tasks and Pairs describe the join after the round's updates; Pairs is
	// checked against the sequential join inside the experiment.
	Tasks int
	Pairs int
	// HintHitRate is the share of the round's buffered inserts that took the
	// leaf-hint fast path (one value per round, repeated on each row).
	HintHitRate float64
	// EstErrPct is the mean over workers of |predicted - actual| / actual in
	// per cent, for the spatial schedule.  It is -1 for stealing, whose split
	// is not the predicted schedule.  This is the estimator-freshness
	// measure: the catalog of a mutated tree must keep it in the band of a
	// freshly built one.
	EstErrPct float64
	TimeSkew  float64
}

// UpdatePair is one relation under update churn: its tree, its live items
// (oldest first) and the id sequence for freshly inserted rectangles.  It is
// exported so the size-scaled benchmark (BenchmarkLargeJoinUpdates) drives
// the identical turnover protocol the experiment table measures.
type UpdatePair struct {
	Tree *rtree.Tree
	// Live holds the current contents oldest first; TurnOver consumes from
	// the front and appends the fresh batch.
	Live []rtree.Item
	// NextID is the id given to the next freshly inserted rectangle; keep it
	// above every live id so turnover batches never collide.
	NextID int32
	Kind   datagen.Kind
	Seed   int64
}

// TurnOver deletes the oldest UpdateBatchPercent of the live items and
// inserts an equally sized batch of fresh ones through a Hilbert insertion
// buffer, validating the tree afterwards.  It returns the buffer's hint hits
// and applied count.
func (u *UpdatePair) TurnOver(round int) (hits, applied int) {
	batch := len(u.Live) * UpdateBatchPercent / 100
	if batch < 1 {
		batch = 1
	}
	for _, it := range u.Live[:batch] {
		if !u.Tree.Delete(it.Rect, it.Data) {
			panic(fmt.Sprintf("experiments: update delete of live item %d failed", it.Data))
		}
	}
	u.Live = u.Live[batch:]
	fresh := datagen.Generate(datagen.Config{Kind: u.Kind, Count: batch, Seed: u.Seed + int64(round)})
	buf := rtree.NewInsertBuffer(u.Tree, batch)
	for _, it := range fresh {
		it.Data = u.NextID
		u.NextID++
		buf.Stage(it.Rect, it.Data)
		u.Live = append(u.Live, it)
	}
	buf.Flush()
	if err := u.Tree.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("experiments: tree invalid after update round %d: %v", round, err))
	}
	return buf.HintHits(), buf.Applied()
}

// TableUpdates interleaves batched updates (Hilbert-buffered inserts plus
// oldest-first deletes, UpdateBatchPercent of each relation per round) with
// SJ4 parallel joins under both partition strategies, on freshly built trees
// (the suite's cached trees must stay immutable for the other tables).  Every
// join's result is verified against the sequential join on the mutated
// trees, and EstErrPct shows the estimator staying healthy on the mutated
// trees' statistics.
func (s *Suite) TableUpdates() []UpdateRow {
	r := &UpdatePair{
		Live: append([]rtree.Item(nil), s.streets()...),
		Kind: datagen.Streets, Seed: 7101, NextID: 1 << 20,
	}
	t := &UpdatePair{
		Live: append([]rtree.Item(nil), s.rivers()...),
		Kind: datagen.Rivers, Seed: 7202, NextID: 1 << 20,
	}
	for _, u := range []*UpdatePair{r, t} {
		u.Tree = rtree.MustNew(rtree.Options{PageSize: ParallelPageSize})
		u.Tree.InsertItems(u.Live)
	}

	var rows []UpdateRow
	for round := 1; round <= UpdateRounds; round++ {
		hitsR, appliedR := r.TurnOver(round)
		hitsT, appliedT := t.TurnOver(round)
		hintRate := 0.0
		if appliedR+appliedT > 0 {
			hintRate = float64(hitsR+hitsT) / float64(appliedR+appliedT)
		}
		seq := s.runJoin(r.Tree, t.Tree, join.SJ4, ParallelBufferKB, nil)
		for _, strategy := range join.PartitionStrategies {
			res, err := join.ParallelJoin(r.Tree, t.Tree, join.ParallelOptions{
				Options: join.Options{
					Method:        join.SJ4,
					BufferBytes:   ParallelBufferKB << 10,
					UsePathBuffer: s.cfg.UsePathBuffer,
					DiscardPairs:  true,
				},
				Workers:  UpdateWorkers,
				Strategy: strategy,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: update join %v round %d: %v", strategy, round, err))
			}
			if res.Count != seq.Count {
				panic(fmt.Sprintf("experiments: update join %v round %d found %d pairs, sequential %d",
					strategy, round, res.Count, seq.Count))
			}
			row := UpdateRow{
				Round:       round,
				Strategy:    strategy,
				Pairs:       res.Count,
				HintHitRate: hintRate,
				EstErrPct:   -1,
				TimeSkew:    res.TimeSkew(s.model, ParallelPageSize),
			}
			for _, n := range res.WorkerTasks {
				row.Tasks += n
			}
			if strategy == join.PartitionSpatial {
				if err, ok := MeanEstErrPct(s.model, res, ParallelPageSize); ok {
					row.EstErrPct = err
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintTableUpdates writes the update-workload rows, one per round and
// strategy.
func PrintTableUpdates(w io.Writer, rows []UpdateRow) {
	writeHeader(w, fmt.Sprintf(
		"Update-heavy workload (SJ4, %d workers, %d%% turnover per round)",
		UpdateWorkers, UpdateBatchPercent))
	fmt.Fprintf(w, "%-6s %-12s %6s %8s %9s %10s %10s\n",
		"round", "strategy", "tasks", "pairs", "hint rate", "est err %", "time skew")
	for _, row := range rows {
		estErr := "-"
		if row.EstErrPct >= 0 {
			estErr = fmt.Sprintf("%.1f", row.EstErrPct)
		}
		fmt.Fprintf(w, "%-6d %-12s %6d %8d %9.2f %10s %10.2f\n",
			row.Round, row.Strategy, row.Tasks, row.Pairs, row.HintHitRate,
			estErr, row.TimeSkew)
	}
	fmt.Fprintln(w, "(each round deletes the oldest batch and Hilbert-buffer-inserts a fresh one on"+
		"\n both relations, then joins with every partition strategy; hint rate = share of"+
		"\n buffered inserts that skipped the ChooseSubtree descent; est err = mean per-"+
		"\n worker |predicted-actual|/actual for the spatial schedule)")
}
