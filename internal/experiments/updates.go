package experiments

import (
	"fmt"
	"io"

	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Update-heavy workloads (extension): Hilbert-buffered update batches
// interleaved with joins.
// ---------------------------------------------------------------------------

// UpdateRounds is the number of update-then-join rounds the experiment runs.
const UpdateRounds = 2

// UpdatePageSize and UpdateBufferKB fix the joins of the update experiment:
// the paper's recommended SJ4 at 4 KByte pages with a 128 KByte buffer.
const (
	UpdatePageSize = storage.PageSize4K
	UpdateBufferKB = 128
)

// UpdateBatchPercent is the share of each relation turned over per round:
// that many per cent of the live rectangles are deleted (oldest first) and
// the same number of fresh rectangles inserted through a Hilbert insertion
// buffer.
const UpdateBatchPercent = 10

// UpdateRow is the join after one update round.
type UpdateRow struct {
	// Round is the 1-based update round.
	Round int
	// Pairs is the join's count after the round's updates; it is checked
	// against the nested loop inside the experiment.
	Pairs int
	// HintHitRate is the share of the round's buffered inserts that took the
	// leaf-hint fast path.
	HintHitRate float64
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
// SJ4 joins, on freshly built trees (the suite's cached trees must stay
// immutable for the other tables).  Every round's join count is verified
// against the index-free nested loop on the mutated trees.
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
		u.Tree = rtree.MustNew(rtree.Options{PageSize: UpdatePageSize})
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
		res := s.runJoin(r.Tree, t.Tree, join.SJ4, UpdateBufferKB, nil)
		oracle := s.runJoin(r.Tree, t.Tree, join.NestedLoop, UpdateBufferKB, nil)
		if res.Count != oracle.Count {
			panic(fmt.Sprintf("experiments: update join round %d found %d pairs, nested loop %d",
				round, res.Count, oracle.Count))
		}
		rows = append(rows, UpdateRow{Round: round, Pairs: res.Count, HintHitRate: hintRate})
	}
	return rows
}

// PrintTableUpdates writes the update-workload rows, one per round.
func PrintTableUpdates(w io.Writer, rows []UpdateRow) {
	writeHeader(w, fmt.Sprintf("Update-heavy workload (SJ4, %d%% turnover per round)", UpdateBatchPercent))
	fmt.Fprintf(w, "%-6s %8s %9s\n", "round", "pairs", "hint rate")
	for _, row := range rows {
		fmt.Fprintf(w, "%-6d %8d %9.2f\n", row.Round, row.Pairs, row.HintHitRate)
	}
	fmt.Fprintln(w, "(each round deletes the oldest batch and Hilbert-buffer-inserts a fresh one on"+
		"\n both relations, then joins them; pairs match the nested loop; hint rate = share"+
		"\n of buffered inserts that skipped the ChooseSubtree descent)")
}
