package join

import (
	"repro/internal/costmodel"
	"repro/internal/rtree"
)

// The identifiers in this file exist only because the ledger (the nested
// bench module) still names them.  Every join is Join, which runs its leaf
// stage on the spare cores and changes no bit.  ROADMAP item 8(d)'s
// bench-only change drops the ledger's join_par op and its join.par_*
// metrics, and deletes this file with them.

// ParallelOptions is the option set of the ledger's join_par op
// (bench/batch.go:107–108).  Only Options is read; Workers and Strategy are
// ignored.  Item 8(d) deletes it.
type ParallelOptions struct {
	Options  Options
	Workers  int
	Strategy PartitionStrategy
}

// PartitionStrategy is the type of ParallelOptions.Strategy
// (bench/batch.go:108).  Item 8(d) deletes it.
type PartitionStrategy int

// PartitionStealing is the strategy the ledger's join_par op names
// (bench/batch.go:108).  Item 8(d) deletes it.
const PartitionStealing PartitionStrategy = 0

// ParallelJoin runs the ledger's join_par op (bench/batch.go:107): it
// returns Join(r, s, popts.Options), pairs, order and metrics included.
// Item 8(d) deletes it.
func ParallelJoin(r, s *rtree.Tree, popts ParallelOptions) (*Result, error) {
	return Join(r, s, popts.Options)
}

// TimeSkew is the ledger's join.par_time_skew (bench/ladder.go:498).  No
// join has workers, so it returns 0.  Item 8(d) deletes it.
func (r *Result) TimeSkew(costmodel.Model, int) float64 { return 0 }
