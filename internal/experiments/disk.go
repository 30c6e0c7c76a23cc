package experiments

import (
	"fmt"
	"io"
	"path"

	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Measured disk I/O (robustness extension): the joins and the update workload
// run against trees persisted in the durable pager, so every counted page
// access is also a physical page read.  The tables put the measured numbers
// next to the counted ones — if the simulation's cost model is honest, the
// two read columns must agree exactly.
// ---------------------------------------------------------------------------

// DiskPageSize is the page size of the disk experiments: the paper's
// smallest, so the runs touch the most pages.
const DiskPageSize = storage.PageSize1K

// DiskIORow is one cold-cache join from disk: counted I/O from the
// simulation next to measured I/O from the pager, for one method and buffer
// size.
type DiskIORow struct {
	Method   join.Method
	BufferKB int
	Pairs    int
	// CountedReads is the simulation's disk-read count (LRU misses).
	CountedReads int64
	// MeasuredReads is how many page frames the pager actually read from the
	// file during the join; it must equal CountedReads — every counted miss
	// performs exactly one physical read.
	MeasuredReads int64
	// MeasuredBytes is the frame bytes that left the file (frames carry an
	// 8-byte checksum header on top of the page payload).
	MeasuredBytes int64
	// ReadMicros is the wall time spent inside physical reads, in
	// microseconds.
	ReadMicros int64
}

// DiskUpdateRow is one turnover round committed to disk: the incremental
// commit's page economy, the WAL traffic it cost, and the verification join
// that ran from the updated file.
type DiskUpdateRow struct {
	Round         int
	PagesWritten  int
	PagesClean    int
	PagesFreed    int
	PagesReused   int64 // allocations served from the pager free list this round
	WALBytes      int64
	CommitMicros  int64
	Pairs         int
	CountedReads  int64
	MeasuredReads int64
}

// mustClose closes a pager and panics on failure: an experiment table is
// only trustworthy if its store shut down cleanly, and the Close error
// latches any commit the pager could not make durable.
func mustClose(p *storage.Pager) {
	if err := p.Close(); err != nil {
		panic(fmt.Sprintf("experiments: closing pager: %v", err))
	}
}

// persistTree saves a copy of the items into a fresh pager-backed tree store
// on fs and commits it.  It returns the store (whose tree carries the
// committed state).
func persistTree(fs storage.VFS, file string, pageSize int, items []rtree.Item) (*rtree.TreeStore, error) {
	pager, err := storage.OpenPager(fs, file, pageSize, storage.PagerOptions{})
	if err != nil {
		return nil, err
	}
	tree := rtree.MustNew(rtree.Options{PageSize: pageSize})
	tree.InsertItems(items)
	ts, err := rtree.NewTreeStore(tree, pager)
	if err != nil {
		return nil, err
	}
	if _, err := ts.Commit(); err != nil {
		return nil, err
	}
	if err := pager.Checkpoint(); err != nil {
		return nil, err
	}
	return ts, nil
}

// TableDiskIO persists the main experiment pair (streets R, rivers S) into
// two pagers on fs and runs every join method cold (fresh LRU buffer, every
// counted miss a physical page read) for each configured buffer size.  dir
// names the directory the page files are created in ("" for a VFS without
// directories).
func (s *Suite) TableDiskIO(fs storage.VFS, dir string) []DiskIORow {
	storeR, err := persistTree(fs, path.Join(dir, "streets.db"), DiskPageSize, s.streets())
	if err != nil {
		panic(fmt.Sprintf("experiments: persisting R: %v", err))
	}
	storeS, err := persistTree(fs, path.Join(dir, "rivers.db"), DiskPageSize, s.rivers())
	if err != nil {
		panic(fmt.Sprintf("experiments: persisting S: %v", err))
	}
	defer mustClose(storeR.Pager())
	defer mustClose(storeS.Pager())

	var rows []DiskIORow
	for _, bufferKB := range []int{0, 128} {
		for _, method := range join.Methods {
			beforeR, beforeS := storeR.Pager().Stats(), storeS.Pager().Stats()
			res := s.runJoin(storeR.Tree().Snapshot(), storeS.Tree().Snapshot(), method, bufferKB, func(o *join.Options) {
				o.PageReaderR = storeR
				o.PageReaderS = storeS
			})
			afterR, afterS := storeR.Pager().Stats(), storeS.Pager().Stats()
			rows = append(rows, DiskIORow{
				Method:        method,
				BufferKB:      bufferKB,
				Pairs:         res.Count,
				CountedReads:  res.Metrics.DiskReads,
				MeasuredReads: (afterR.Reads - beforeR.Reads) + (afterS.Reads - beforeS.Reads),
				MeasuredBytes: (afterR.BytesRead - beforeR.BytesRead) + (afterS.BytesRead - beforeS.BytesRead),
				ReadMicros:    ((afterR.ReadNanos - beforeR.ReadNanos) + (afterS.ReadNanos - beforeS.ReadNanos)) / 1000,
			})
		}
	}
	return rows
}

// TableDiskUpdates runs the update-heavy workload against the durable store:
// every turnover round is committed to the pager as one transaction (only
// changed pages written, dissolved pages freed and reused), then verified by
// an SJ4 join reading physically from the updated file.
func (s *Suite) TableDiskUpdates(fs storage.VFS, dir string) []DiskUpdateRow {
	storeR, err := persistTree(fs, path.Join(dir, "upd-streets.db"), DiskPageSize, s.streets())
	if err != nil {
		panic(fmt.Sprintf("experiments: persisting R: %v", err))
	}
	storeS, err := persistTree(fs, path.Join(dir, "upd-rivers.db"), DiskPageSize, s.rivers())
	if err != nil {
		panic(fmt.Sprintf("experiments: persisting S: %v", err))
	}
	defer mustClose(storeR.Pager())
	defer mustClose(storeS.Pager())

	u := &UpdatePair{
		Tree: storeR.Tree(),
		Live: append([]rtree.Item(nil), s.streets()...),
		Kind: datagen.Streets, Seed: 8101, NextID: 1 << 20,
	}
	var rows []DiskUpdateRow
	for round := 1; round <= UpdateRounds+2; round++ {
		u.TurnOver(round)
		before := storeR.Pager().Stats()
		stats, err := storeR.Commit()
		if err != nil {
			panic(fmt.Sprintf("experiments: disk update commit round %d: %v", round, err))
		}
		after := storeR.Pager().Stats()

		joinBeforeR, joinBeforeS := storeR.Pager().Stats(), storeS.Pager().Stats()
		res := s.runJoin(storeR.Tree().Snapshot(), storeS.Tree().Snapshot(), join.SJ4, 0, func(o *join.Options) {
			o.PageReaderR = storeR
			o.PageReaderS = storeS
		})
		joinAfterR, joinAfterS := storeR.Pager().Stats(), storeS.Pager().Stats()

		rows = append(rows, DiskUpdateRow{
			Round:        round,
			PagesWritten: stats.PagesWritten,
			PagesClean:   stats.PagesClean,
			PagesFreed:   stats.PagesFreed,
			PagesReused:  after.ReuseAllocations - before.ReuseAllocations,
			WALBytes:     after.WALBytes - before.WALBytes,
			CommitMicros: (after.CommitNanos - before.CommitNanos) / 1000,
			Pairs:        res.Count,
			CountedReads: res.Metrics.DiskReads,
			MeasuredReads: (joinAfterR.Reads - joinBeforeR.Reads) +
				(joinAfterS.Reads - joinBeforeS.Reads),
		})
	}
	return rows
}

// PrintTableDiskIO writes the measured-vs-counted join table.
func PrintTableDiskIO(w io.Writer, rows []DiskIORow) {
	writeHeader(w, fmt.Sprintf("Cold-cache joins from disk (page size %d): counted vs measured I/O", DiskPageSize))
	fmt.Fprintf(w, "%-14s %-9s %9s %13s %14s %14s %11s\n",
		"method", "buffer", "pairs", "counted reads", "measured reads", "measured bytes", "read µs")
	lastBuf := -1
	for _, row := range rows {
		if lastBuf >= 0 && row.BufferKB != lastBuf {
			fmt.Fprintln(w)
		}
		lastBuf = row.BufferKB
		fmt.Fprintf(w, "%-14s %-9s %9d %13d %14d %14d %11d\n",
			row.Method, fmt.Sprintf("%d KB", row.BufferKB), row.Pairs,
			row.CountedReads, row.MeasuredReads, row.MeasuredBytes, row.ReadMicros)
	}
	fmt.Fprintln(w, "(trees persisted in the crash-safe pager; the join's LRU starts cold, and every"+
		"\n counted miss performs one physical checksum-verified frame read — the counted"+
		"\n and measured read columns must agree exactly)")
}

// PrintTableDiskUpdates writes the durable update-workload table.
func PrintTableDiskUpdates(w io.Writer, rows []DiskUpdateRow) {
	writeHeader(w, fmt.Sprintf(
		"Durable update rounds (page size %d, %d%% turnover): incremental commit + verification join",
		DiskPageSize, UpdateBatchPercent))
	fmt.Fprintf(w, "%-6s %8s %7s %6s %7s %10s %10s %8s %9s %9s\n",
		"round", "written", "clean", "freed", "reused", "WAL bytes", "commit µs", "pairs", "counted", "measured")
	for _, row := range rows {
		fmt.Fprintf(w, "%-6d %8d %7d %6d %7d %10d %10d %8d %9d %9d\n",
			row.Round, row.PagesWritten, row.PagesClean, row.PagesFreed, row.PagesReused,
			row.WALBytes, row.CommitMicros, row.Pairs, row.CountedReads, row.MeasuredReads)
	}
	fmt.Fprintln(w, "(each round deletes the oldest tenth and Hilbert-buffer-inserts a fresh batch,"+
		"\n then commits: only pages whose bytes changed are written, dissolved nodes'"+
		"\n pages are freed and reused by later rounds; the SJ4 join then reads the"+
		"\n updated tree physically from the file)")
}
