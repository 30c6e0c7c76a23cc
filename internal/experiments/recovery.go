package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Crash-recovery property harness (robustness extension): the same
// insert/delete/join workload is replayed with a power cut injected at every
// file operation, and after each cut the pager must recover to a committed
// tree whose SJ1–SJ5 join results are bit-identical to what the clean run
// recorded for that commit.
// ---------------------------------------------------------------------------

// RecoveryConfig parameterises the harness.  The zero value is usable: it
// runs the default workload and crashes at every file operation.
type RecoveryConfig struct {
	// Items is the cardinality of the mutated relation R (default 600).
	Items int
	// SItems is the cardinality of the static relation S (default 400).
	SItems int
	// Rounds is the number of turnover rounds, each deleting the oldest tenth
	// of R and re-inserting as many fresh rectangles through the Hilbert
	// insertion buffer, followed by a commit (default 8).
	Rounds int
	// PageSize is the page size of tree and pager (default 1K, the paper's
	// smallest: most pages, most crash points).
	PageSize int
	// Seed seeds the workload (default 42).
	Seed int64
	// CheckpointEvery is the pager's auto-checkpoint cadence (default 3, so
	// the enumeration crosses several full checkpoint cycles).
	CheckpointEvery int
	// Stride enumerates every Stride-th file operation as a crash point
	// (default 1: every operation).  The -short tests use a larger stride.
	Stride int
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.Items <= 0 {
		c.Items = 600
	}
	if c.SItems <= 0 {
		c.SItems = 400
	}
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
	if c.PageSize <= 0 {
		c.PageSize = storage.PageSize1K
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 3
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	return c
}

// RecoveryReport is the outcome of one harness run.
type RecoveryReport struct {
	// Commits is the number of transactions the clean run committed.
	Commits int
	// TotalOps is the number of file operations of the clean run — the size
	// of the crash-point space.
	TotalOps int64
	// CrashPoints is how many injected-crash iterations ran.
	CrashPoints int
	// Recovered is how many of them recovered to a validated tree with
	// bit-identical join results; a correct pager recovers all of them.
	Recovered int
	// EmptyRecoveries counts crash points early enough that no commit was
	// durable yet (the pager legitimately recovers to an empty file).
	EmptyRecoveries int
	// ReplayedTxns sums the WAL transactions replayed across all recoveries.
	ReplayedTxns int64
	// Failures lists what went wrong, one line per failed crash point (empty
	// on success).
	Failures []string
}

// Ok reports whether every crash point recovered correctly.
func (r *RecoveryReport) Ok() bool { return len(r.Failures) == 0 }

// recoveryCheckpoint is what the clean run records after each commit: the
// pager sequence number, the file-operation count at which the commit had
// returned (everything at or below it must survive any later crash), and the
// canonical hash of every join method's result set at that commit.
type recoveryCheckpoint struct {
	seq    uint64
	opsEnd int64
	hashes [5]uint64
}

// recoveryWorkload drives the deterministic mutation script.  Every decision
// is derived from the config seed alone — never from I/O outcomes — so the
// clean run and every crash run execute the identical operation sequence up
// to the cut.
type recoveryWorkload struct {
	cfg    RecoveryConfig
	rItems []rtree.Item
	sTree  *rtree.Tree
}

func newRecoveryWorkload(cfg RecoveryConfig) *recoveryWorkload {
	w := &recoveryWorkload{cfg: cfg}
	w.rItems = datagen.Generate(datagen.Config{
		Kind: datagen.Streets, Count: cfg.Items, Seed: cfg.Seed,
	})
	sItems := datagen.Generate(datagen.Config{
		Kind: datagen.Rivers, Count: cfg.SItems, Seed: cfg.Seed + 1,
	})
	w.sTree = rtree.MustNew(rtree.Options{PageSize: cfg.PageSize})
	w.sTree.InsertItems(sItems)
	w.sTree = w.sTree.Snapshot()
	return w
}

// joinHashes publishes r, joins it against the static S with every method
// and returns one canonical (sorted, FNV-1a) hash per method.
func (w *recoveryWorkload) joinHashes(r *rtree.Tree) [5]uint64 {
	r = r.Snapshot()
	var hashes [5]uint64
	for i, method := range join.Methods {
		res, err := join.Join(r, w.sTree, join.Options{Method: method})
		if err != nil {
			panic(fmt.Sprintf("experiments: recovery join %v: %v", method, err))
		}
		hashes[i] = pairSetHash(res.Pairs)
	}
	return hashes
}

// run executes the workload against a pager on fs: build R, commit, then
// Rounds× (turn over a tenth, commit).  After every commit that returns,
// record is called with the committed tree.  The first error aborts the run
// (in a crash iteration that error is the injected cut); the caller decides
// what it means.
func (w *recoveryWorkload) run(fs storage.VFS, record func(seq uint64, tree *rtree.Tree)) error {
	pager, err := storage.OpenPager(fs, "r.db", w.cfg.PageSize, storage.PagerOptions{
		CheckpointEvery: w.cfg.CheckpointEvery,
		Sleep:           func(time.Duration) {},
	})
	if err != nil {
		return err
	}
	tree := rtree.MustNew(rtree.Options{PageSize: w.cfg.PageSize})
	tree.InsertItems(w.rItems)
	ts, err := rtree.NewTreeStore(tree, pager)
	if err != nil {
		return err
	}
	commit := func() error {
		stats, err := ts.Commit()
		if err != nil {
			return err
		}
		if record != nil {
			record(stats.Seq, tree)
		}
		return nil
	}
	if err := commit(); err != nil {
		return err
	}

	live := append([]rtree.Item(nil), w.rItems...)
	nextID := int32(1 << 20)
	for round := 1; round <= w.cfg.Rounds; round++ {
		batch := len(live) / 10
		if batch < 1 {
			batch = 1
		}
		for _, it := range live[:batch] {
			if !tree.Delete(it.Rect, it.Data) {
				return fmt.Errorf("experiments: recovery delete of item %d failed", it.Data)
			}
		}
		live = live[batch:]
		fresh := datagen.Generate(datagen.Config{
			Kind: datagen.Streets, Count: batch, Seed: w.cfg.Seed + 100 + int64(round),
		})
		buf := rtree.NewInsertBuffer(tree, batch)
		for _, it := range fresh {
			it.Data = nextID
			nextID++
			buf.Stage(it.Rect, it.Data)
			live = append(live, it)
		}
		buf.Flush()
		if err := commit(); err != nil {
			return err
		}
	}
	return nil
}

// RunRecoveryHarness enumerates a power cut at every Stride-th file operation
// of the workload and verifies that each cut recovers to a committed,
// structurally valid tree whose SJ1–SJ5 results are bit-identical to the
// clean run's record for that commit, and whose durability covers every
// commit that had returned before the cut.
func RunRecoveryHarness(cfg RecoveryConfig) *RecoveryReport {
	cfg = cfg.withDefaults()
	w := newRecoveryWorkload(cfg)
	report := &RecoveryReport{}

	// Clean run: instrumented through a fault-free FaultFS so the recorded
	// operation counts align with the crash runs below.
	cleanFS := storage.NewFaultFS(storage.NewMemVFS(), storage.FaultScript{})
	var checkpoints []recoveryCheckpoint
	err := w.run(cleanFS, func(seq uint64, tree *rtree.Tree) {
		checkpoints = append(checkpoints, recoveryCheckpoint{
			seq:    seq,
			opsEnd: cleanFS.Ops(),
			hashes: w.joinHashes(tree),
		})
	})
	if err != nil {
		report.Failures = append(report.Failures, fmt.Sprintf("clean run failed: %v", err))
		return report
	}
	report.Commits = len(checkpoints)
	report.TotalOps = cleanFS.Ops()
	bySeq := make(map[uint64]recoveryCheckpoint, len(checkpoints))
	for _, c := range checkpoints {
		bySeq[c.seq] = c
	}

	for op := int64(1); op <= report.TotalOps; op += int64(cfg.Stride) {
		report.CrashPoints++
		if msg := w.crashAt(op, bySeq, report); msg != "" {
			report.Failures = append(report.Failures, fmt.Sprintf("crash at op %d: %s", op, msg))
		} else {
			report.Recovered++
		}
	}
	return report
}

// crashAt replays the workload with a power cut at the given operation,
// recovers from the surviving disk image and verifies the recovered state.
// It returns "" on success and a description of the violation otherwise.
func (w *recoveryWorkload) crashAt(op int64, bySeq map[uint64]recoveryCheckpoint, report *RecoveryReport) string {
	faultFS := storage.NewFaultFS(storage.NewMemVFS(), storage.FaultScript{
		CrashAtOp: op,
		TornSeed:  w.cfg.Seed * 7,
	})
	// The committed prefix every later state must dominate: the highest
	// sequence number whose commit had fully returned before the cut.
	var lastDurable uint64
	err := w.run(faultFS, func(seq uint64, tree *rtree.Tree) {
		lastDurable = seq
	})
	if err == nil {
		// The cut fired after the workload finished (tail operations of the
		// final checkpoint); recovery must still see the final commit.
	} else if !errors.Is(err, storage.ErrInjectedCrash) && !errors.Is(err, storage.ErrPagerBroken) {
		return fmt.Sprintf("workload failed with a non-crash error: %v", err)
	}
	if !faultFS.Crashed() {
		// The cut lies beyond the workload's operations; nothing to test.
		faultFS.Base().Crash(w.cfg.Seed * 13)
	}

	// Recover from the durable image the cut left behind.
	pager, err := storage.OpenPager(faultFS.Base(), "r.db", w.cfg.PageSize, storage.PagerOptions{
		CheckpointEvery: w.cfg.CheckpointEvery,
		Sleep:           func(time.Duration) {},
	})
	if err != nil {
		return fmt.Sprintf("recovery open failed: %v", err)
	}
	defer mustClose(pager)
	report.ReplayedTxns += pager.Stats().RecoveredTxns

	seq := pager.Seq()
	if seq < lastDurable {
		return fmt.Sprintf("recovered to seq %d, but commit %d had returned before the cut", seq, lastDurable)
	}
	if seq == 0 {
		if lastDurable > 0 {
			return fmt.Sprintf("recovered empty, but commit %d had returned before the cut", lastDurable)
		}
		report.EmptyRecoveries++
		return ""
	}
	want, ok := bySeq[seq]
	if !ok {
		return fmt.Sprintf("recovered to seq %d, which the clean run never committed", seq)
	}
	ts, err := rtree.OpenTreeStore(pager, rtree.Options{PageSize: w.cfg.PageSize})
	if err != nil {
		return fmt.Sprintf("loading recovered tree at seq %d: %v", seq, err)
	}
	if err := ts.Tree().CheckInvariants(); err != nil {
		return fmt.Sprintf("recovered tree at seq %d invalid: %v", seq, err)
	}
	if got := w.joinHashes(ts.Tree()); got != want.hashes {
		return fmt.Sprintf("join results at seq %d differ from the clean run (got %x, want %x)",
			seq, got, want.hashes)
	}
	return ""
}

// PrintRecoveryReport writes the harness outcome.
func PrintRecoveryReport(w io.Writer, r *RecoveryReport) {
	writeHeader(w, "Crash-recovery property harness (power cut at every file operation)")
	fmt.Fprintf(w, "%-28s %d\n", "commits (clean run)", r.Commits)
	fmt.Fprintf(w, "%-28s %d\n", "file operations", r.TotalOps)
	fmt.Fprintf(w, "%-28s %d\n", "injected crash points", r.CrashPoints)
	fmt.Fprintf(w, "%-28s %d\n", "recovered + verified", r.Recovered)
	fmt.Fprintf(w, "%-28s %d\n", "empty recoveries", r.EmptyRecoveries)
	fmt.Fprintf(w, "%-28s %d\n", "WAL transactions replayed", r.ReplayedTxns)
	if r.Ok() {
		fmt.Fprintln(w, "every crash point recovered to a committed tree with bit-identical SJ1-SJ5 results")
		return
	}
	fmt.Fprintf(w, "%d FAILURES:\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  %s\n", f)
	}
}
