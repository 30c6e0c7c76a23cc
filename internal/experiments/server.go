package experiments

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Server torture harness (robustness extension): an open-loop churn+query
// workload drives the concurrent join server over a FaultFS while the script
// injects flaky reads, a dead disk, failing fsyncs, and a mid-round power
// cut.  The invariant checked for every single admitted query: it returns
// either a result identical to the sequential join over its epoch's item set
// (pair-set hash equality against a brute-force model) or one of the typed
// errors (ErrShed / ErrDeadline / join.ErrCancelled / ErrServerBroken) —
// never a hang, never a torn snapshot.  After each destructive phase the
// server must reopen to the last committed state, and the harness reports
// tail latency, shed rate and recovery time per phase.
// ---------------------------------------------------------------------------

// ServerTortureConfig parameterises the harness.  The zero value runs the
// default workload.
type ServerTortureConfig struct {
	// Items and SItems are the cardinalities of the churned relation R and
	// the static relation S (defaults 500 and 350).
	Items, SItems int
	// Readers is the number of concurrent query workers (default 4).
	Readers int
	// Waves is the number of churn rounds per concurrent phase, each
	// followed by QueriesPerWave queries racing the next round (defaults 4
	// and 12).
	Waves, QueriesPerWave int
	// ChurnPerRound is how many delete+insert pairs each round stages
	// (default 50).
	ChurnPerRound int
	// PageSize is the page size of tree and pager (default 1K).
	PageSize int
	// Deadline is the per-query deadline (default 5s — generous, so only
	// the injected faults produce errors).
	Deadline time.Duration
	// MaxInflight and CostBudget pass through to the server's admission
	// control (zero keeps the server defaults).  Setting MaxInflight below
	// Readers turns the clean phases into an overload run that measures
	// shed rate.
	MaxInflight int
	CostBudget  time.Duration
	// QueryWorkers > 1 runs each query as a ParallelJoin.  On a single-CPU
	// host sequential queries never yield mid-join, so admission overlap —
	// and therefore shedding — only shows up when the worker handoff gives
	// the scheduler a switch point.
	QueryWorkers int
	// Seed seeds the workload (default 7).
	Seed int64
}

func (c ServerTortureConfig) withDefaults() ServerTortureConfig {
	if c.Items <= 0 {
		c.Items = 500
	}
	if c.SItems <= 0 {
		c.SItems = 350
	}
	if c.Readers <= 0 {
		c.Readers = 4
	}
	if c.Waves <= 0 {
		c.Waves = 4
	}
	if c.QueriesPerWave <= 0 {
		c.QueriesPerWave = 12
	}
	if c.ChurnPerRound <= 0 {
		c.ChurnPerRound = 50
	}
	if c.PageSize <= 0 {
		c.PageSize = storage.PageSize1K
	}
	if c.Deadline <= 0 {
		c.Deadline = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// ServerPhaseResult is the outcome of one torture phase.
type ServerPhaseResult struct {
	Name    string
	Queries int // query attempts
	Done    int // returned a verified result
	Shed    int
	Deadlined,
	Cancelled int
	Broken  int // failed with ErrServerBroken
	Retried int // succeeded after server-level retries
	Rounds  int // writer rounds committed

	// P50/P99/P999 are wall-clock latencies over the successful queries.
	P50, P99, P999 time.Duration
	// ShedRate is Shed / Queries.
	ShedRate float64
	// Recovery is the wall time of the Reopen after this phase's fault (0
	// for phases that do not break the server).
	Recovery time.Duration
}

// ServerTortureReport is the outcome of the whole harness run.
type ServerTortureReport struct {
	Phases   []ServerPhaseResult
	Failures []string
	// TotalQueries and Verified count every attempt across phases and the
	// subset whose result hash-matched the model.
	TotalQueries, Verified int
	// GoroutinesLeaked is set when goroutines survive server shutdown.
	GoroutinesLeaked int
}

// Ok reports whether the harness observed no violation.
func (r *ServerTortureReport) Ok() bool {
	return len(r.Failures) == 0 && r.GoroutinesLeaked == 0
}

// tortureHarness owns the server under test and the brute-force model.
type tortureHarness struct {
	cfg    ServerTortureConfig
	fs     *storage.FaultFS
	srv    *server.Server
	sItems []rtree.Item
	rng    *rand.Rand
	next   int32

	// modelMu guards the committed item sets and their pair-set hashes,
	// keyed by epoch sequence.  Entries are recorded before the flip that
	// publishes them, so a reader can never see an epoch without a model.
	modelMu sync.RWMutex
	models  map[uint64][]rtree.Item
	hashes  map[uint64]uint64
	live    []rtree.Item // the writer's last acknowledged item set
	// pending is the target state of a round whose commit returned an
	// error.  An unacknowledged commit may still be durable (the WAL can
	// hold the full commit record even when the fsync reported failure, or
	// when the power cut landed just after it), so recovery may come back
	// either to live or to pending.
	pending []rtree.Item

	// sleepMu guards the pluggable retry-backoff hook.
	sleepMu   sync.Mutex
	sleepHook func()

	failMu   sync.Mutex
	failures []string
}

// tortureItems generates items whose coordinates are exactly representable
// in the on-disk format (pages store rects as float32).  Deletes match
// entries by exact rect equality, so a rect that survives an encode/decode
// round trip unchanged is required for deletes staged after a Reopen — the
// reopened tree holds the decoded coordinates — to find their entries.
func tortureItems(rng *rand.Rand, n int, base int32, side float64) []rtree.Item {
	q := func(v float64) float64 { return float64(float32(v)) }
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = rtree.Item{
			Rect: geom.Rect{XL: q(x), YL: q(y), XU: q(x + side), YU: q(y + side)},
			Data: base + int32(i),
		}
	}
	return items
}

// pairSetHash is the order-independent fingerprint of a join result: FNV-64a
// over the sorted (R, S) id pairs.  Two queries of the same epoch must
// produce equal hashes; a hash equal to the brute-force model's proves the
// result is exactly the sequential answer for that epoch's item set.
func pairSetHash(pairs []join.Pair) uint64 {
	sorted := append([]join.Pair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].R != sorted[j].R {
			return sorted[i].R < sorted[j].R
		}
		return sorted[i].S < sorted[j].S
	})
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range sorted {
		binary.LittleEndian.PutUint32(buf[:4], uint32(p.R))
		binary.LittleEndian.PutUint32(buf[4:], uint32(p.S))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (h *tortureHarness) fail(format string, args ...any) {
	h.failMu.Lock()
	defer h.failMu.Unlock()
	h.failures = append(h.failures, fmt.Sprintf(format, args...))
}

// recordModel stores the item set that the NEXT successful round publishes.
func (h *tortureHarness) recordModel(seq uint64, items []rtree.Item) {
	cp := append([]rtree.Item(nil), items...)
	h.modelMu.Lock()
	h.models[seq] = cp
	h.hashes[seq] = pairSetHash(predicateOracle(cp, h.sItems, join.Intersects()))
	h.modelMu.Unlock()
}

func (h *tortureHarness) dropModel(seq uint64) {
	h.modelMu.Lock()
	delete(h.models, seq)
	delete(h.hashes, seq)
	h.modelMu.Unlock()
}

func (h *tortureHarness) resetModels() {
	h.modelMu.Lock()
	h.models = make(map[uint64][]rtree.Item)
	h.hashes = make(map[uint64]uint64)
	h.modelMu.Unlock()
}

func (h *tortureHarness) modelHash(seq uint64) (uint64, bool) {
	h.modelMu.RLock()
	defer h.modelMu.RUnlock()
	v, ok := h.hashes[seq]
	return v, ok
}

// churnRound stages ChurnPerRound delete+insert pairs and commits them as
// one round, keeping the model in lockstep with the published epochs.
func (h *tortureHarness) churnRound() error {
	n := h.cfg.ChurnPerRound
	if n > len(h.live) {
		n = len(h.live)
	}
	var ops []server.Op
	for _, it := range h.live[:n] {
		ops = append(ops, server.Op{Rect: it.Rect, Data: it.Data, Delete: true})
	}
	fresh := tortureItems(h.rng, n, h.next, 0.02)
	h.next += int32(n)
	for _, it := range fresh {
		ops = append(ops, server.Op{Rect: it.Rect, Data: it.Data})
	}
	nextLive := append(append([]rtree.Item(nil), h.live[n:]...), fresh...)

	if err := h.srv.Update(ops); err != nil {
		return err
	}
	// The model for the next epoch must exist before the flip publishes it.
	seq := h.srv.CurrentEpoch() + 1
	h.recordModel(seq, nextLive)
	if _, err := h.srv.Round(); err != nil {
		h.dropModel(seq)
		h.pending = nextLive
		return err
	}
	h.pending = nil
	h.live = nextLive
	return nil
}

// query runs one join and classifies the outcome.
func (h *tortureHarness) query(res *ServerPhaseResult, lat *[]time.Duration, mu *sync.Mutex) {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Deadline)
	defer cancel()
	start := time.Now()
	resp, err := h.srv.Join(ctx, server.JoinRequest{Workers: h.cfg.QueryWorkers})
	elapsed := time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	res.Queries++
	switch {
	case err == nil:
		res.Done++
		*lat = append(*lat, elapsed)
		if resp.Retries > 0 {
			res.Retried++
		}
		want, ok := h.modelHash(resp.Epoch)
		if !ok {
			h.fail("%s: no model for epoch %d", res.Name, resp.Epoch)
			return
		}
		if got := pairSetHash(resp.Pairs); got != want {
			h.fail("%s: epoch %d result hash %x, want %x (%d pairs) — torn snapshot",
				res.Name, resp.Epoch, got, want, len(resp.Pairs))
		}
	case errors.Is(err, server.ErrShed):
		res.Shed++
	case errors.Is(err, server.ErrDeadline):
		res.Deadlined++
	case errors.Is(err, join.ErrCancelled):
		res.Cancelled++
	case errors.Is(err, server.ErrServerBroken):
		res.Broken++
	default:
		h.fail("%s: untyped error: %v", res.Name, err)
	}
}

// runConcurrentPhase drives Waves rounds of churn, each racing
// QueriesPerWave queries spread over Readers workers.
func (h *tortureHarness) runConcurrentPhase(name string, script storage.FaultScript) ServerPhaseResult {
	h.fs.SetScript(script)
	defer h.fs.SetScript(storage.FaultScript{})

	res := ServerPhaseResult{Name: name}
	var lat []time.Duration
	var mu sync.Mutex

	queries := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < h.cfg.Readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range queries {
				h.query(&res, &lat, &mu)
			}
		}()
	}
	for wave := 0; wave < h.cfg.Waves; wave++ {
		if err := h.churnRound(); err != nil {
			// Only a broken server may refuse a round, and only while a
			// fault script is active.
			if !errors.Is(err, server.ErrServerBroken) {
				h.fail("%s: round error: %v", name, err)
			}
		} else {
			res.Rounds++
		}
		for q := 0; q < h.cfg.QueriesPerWave; q++ {
			queries <- struct{}{}
		}
	}
	close(queries)
	wg.Wait()

	finishPhase(&res, lat)
	return res
}

func finishPhase(res *ServerPhaseResult, lat []time.Duration) {
	if res.Queries > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Queries)
	}
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(p float64) time.Duration {
		idx := int(p * float64(len(lat)-1))
		return lat[idx]
	}
	res.P50, res.P99, res.P999 = pick(0.50), pick(0.99), pick(0.999)
}

// reopenAndVerify recovers a broken server and checks the recovered state is
// exactly the last committed item set.
func (h *tortureHarness) reopenAndVerify(res *ServerPhaseResult) {
	if !h.srv.Broken() {
		h.fail("%s: server not broken before reopen", res.Name)
	}
	start := time.Now()
	if err := h.srv.Reopen(); err != nil {
		h.fail("%s: reopen: %v", res.Name, err)
		return
	}
	res.Recovery = time.Since(start)

	resp, err := h.srv.Join(context.Background(), server.JoinRequest{})
	if err != nil {
		h.fail("%s: join after reopen: %v", res.Name, err)
		return
	}
	got := pairSetHash(resp.Pairs)
	committed := predicateOracle(h.live, h.sItems, join.Intersects())
	switch {
	case got == pairSetHash(committed):
		// Recovered to the last acknowledged commit.
	case h.pending != nil && got == pairSetHash(predicateOracle(h.pending, h.sItems, join.Intersects())):
		// The unacknowledged round proved durable after all; adopt it.
		h.live = h.pending
	default:
		h.fail("%s: recovered state hash %x (%d pairs) matches neither the last committed (%d pairs) nor the pending round (pending=%v)",
			res.Name, got, len(resp.Pairs), len(committed), h.pending != nil)
	}
	h.pending = nil

	// The reopened store restarts its commit sequence; re-key the model.
	h.resetModels()
	h.recordModel(h.srv.CurrentEpoch(), h.live)
}

// RunServerTorture runs the full phased workload and returns the report.
func RunServerTorture(cfg ServerTortureConfig) *ServerTortureReport {
	cfg = cfg.withDefaults()
	goroutinesBefore := runtime.NumGoroutine()
	report := &ServerTortureReport{}

	rng := rand.New(rand.NewSource(cfg.Seed))
	rItems := tortureItems(rng, cfg.Items, 0, 0.02)
	sItems := tortureItems(rng, cfg.SItems, 1_000_000, 0.02)
	treeOpts := rtree.Options{PageSize: cfg.PageSize}
	rTree, err := rtree.BulkLoadSTR(treeOpts, rItems)
	if err != nil {
		report.Failures = append(report.Failures, err.Error())
		return report
	}
	sTree, err := rtree.BulkLoadSTR(treeOpts, sItems)
	if err != nil {
		report.Failures = append(report.Failures, err.Error())
		return report
	}

	fs := storage.NewFaultFS(storage.NewMemVFS(), storage.FaultScript{})
	pagerOpts := storage.PagerOptions{ReadRetries: 2, Sleep: func(time.Duration) {}}
	pager, err := storage.OpenPager(fs, "server.db", cfg.PageSize, pagerOpts)
	if err != nil {
		report.Failures = append(report.Failures, err.Error())
		return report
	}
	store, err := rtree.NewTreeStore(rTree, pager)
	if err != nil {
		report.Failures = append(report.Failures, err.Error())
		return report
	}

	h := &tortureHarness{
		cfg:    cfg,
		fs:     fs,
		sItems: sItems,
		rng:    rng,
		next:   int32(500_000),
		models: make(map[uint64][]rtree.Item),
		hashes: make(map[uint64]uint64),
		live:   append([]rtree.Item(nil), rItems...),
	}
	srv, err := server.New(server.Config{
		Store:           store,
		S:               sTree,
		BatchCapacity:   2 * cfg.ChurnPerRound,
		MaxInflight:     cfg.MaxInflight,
		CostBudget:      cfg.CostBudget,
		DefaultDeadline: cfg.Deadline,
		RetryAttempts:   2,
		CacheBytes:      64 * cfg.PageSize,
		Sleep: func(context.Context, time.Duration) {
			h.sleepMu.Lock()
			hook := h.sleepHook
			h.sleepMu.Unlock()
			if hook != nil {
				hook()
			}
		},
		Reopen: func() (*rtree.TreeStore, error) {
			// After a power cut the FaultFS rejects everything; the
			// replacement disk is the underlying MemVFS with whatever
			// survived the crash.
			var vfs storage.VFS = fs
			if fs.Crashed() {
				vfs = fs.Base()
			}
			p, err := storage.OpenPager(vfs, "server.db", cfg.PageSize, pagerOpts)
			if err != nil {
				return nil, err
			}
			return rtree.OpenTreeStore(p, treeOpts)
		},
	})
	if err != nil {
		report.Failures = append(report.Failures, err.Error())
		return report
	}
	h.srv = srv
	h.recordModel(srv.CurrentEpoch(), h.live)

	// Phase 1: clean — churn racing queries, no faults.
	report.Phases = append(report.Phases, h.runConcurrentPhase("clean", storage.FaultScript{}))

	// Phase 2: flaky reads — every 37th read attempt fails; the pager's own
	// retry absorbs all of them, so every query still verifies.
	report.Phases = append(report.Phases,
		h.runConcurrentPhase("flaky-reads", storage.FaultScript{ReadErrEvery: 37}))

	// Phase 3: transient dead disk — every read fails until the server's
	// first retry backoff, whose hook heals the disk.  Deterministically
	// exercises the retry path: the query must succeed with Retries > 0.
	func() {
		res := ServerPhaseResult{Name: "transient-read"}
		// A fresh round first: its epoch starts with an empty page cache, so
		// the query below must actually touch the (dead) disk rather than be
		// served from pages the previous phase already cached.
		if err := h.churnRound(); err != nil {
			h.fail("transient-read: setup round: %v", err)
			return
		}
		res.Rounds++
		h.sleepMu.Lock()
		h.sleepHook = func() { h.fs.SetScript(storage.FaultScript{}) }
		h.sleepMu.Unlock()
		defer func() {
			h.sleepMu.Lock()
			h.sleepHook = nil
			h.sleepMu.Unlock()
		}()
		h.fs.SetScript(storage.FaultScript{ReadErrEvery: 1})
		var lat []time.Duration
		var mu sync.Mutex
		h.query(&res, &lat, &mu)
		if res.Retried == 0 {
			h.fail("transient-read: query did not record a retry (done=%d broken=%d)",
				res.Done, res.Broken)
		}
		finishPhase(&res, lat)
		report.Phases = append(report.Phases, res)
	}()

	// Phase 4: dead disk — reads fail persistently, retries exhaust, the
	// server latches broken and every later query fails fast and typed.
	func() {
		res := h.runConcurrentPhase("dead-reads", storage.FaultScript{ReadErrEvery: 1})
		if res.Broken == 0 {
			h.fail("dead-reads: no query observed ErrServerBroken")
		}
		h.reopenAndVerify(&res)
		report.Phases = append(report.Phases, res)
	}()

	// Phase 5: failing fsync — the round's commit cannot become durable,
	// the writer breaks the server, queries fail fast and typed.
	func() {
		res := h.runConcurrentPhase("sync-fail", storage.FaultScript{SyncErrEvery: 1})
		if !h.srv.Broken() {
			h.fail("sync-fail: commit with failing fsync did not break the server")
		}
		h.reopenAndVerify(&res)
		report.Phases = append(report.Phases, res)
	}()

	// Phase 6: mid-round power cut — the disk dies partway through a
	// commit; recovery must come back to the last committed round exactly.
	func() {
		res := ServerPhaseResult{Name: "power-cut"}
		h.fs.SetScript(storage.FaultScript{CrashAtOp: h.fs.Ops() + 10, TornSeed: cfg.Seed})
		if err := h.churnRound(); err == nil {
			h.fail("power-cut: round survived the scripted crash")
		}
		if !h.fs.Crashed() {
			h.fail("power-cut: crash point never fired")
		}
		var lat []time.Duration
		var mu sync.Mutex
		h.query(&res, &lat, &mu) // must fail fast and typed, not hang
		h.reopenAndVerify(&res)
		finishPhase(&res, lat)
		report.Phases = append(report.Phases, res)
	}()

	if err := srv.Close(); err != nil {
		report.Failures = append(report.Failures, fmt.Sprintf("close: %v", err))
	}
	// The power cut latched the pager broken on purpose; its close error is
	// the fault the phase just verified, not a new failure.
	//repolint:ignore latchederr the injected crash is why Close fails; the phase already verified recovery
	pager.Close()

	// Goroutine-leak check: everything the server and its joins spawned
	// must be gone shortly after shutdown.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore {
			break
		} else if time.Now().After(deadline) {
			report.GoroutinesLeaked = n - goroutinesBefore
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, p := range report.Phases {
		report.TotalQueries += p.Queries
		report.Verified += p.Done
	}
	report.Failures = append(report.Failures, h.failures...)
	return report
}

// PrintServerReport renders the torture report as a table.
func PrintServerReport(w io.Writer, r *ServerTortureReport) {
	fmt.Fprintln(w, "Server torture harness: open-loop churn+query workload under injected faults")
	fmt.Fprintln(w, "(every admitted query: verified result or typed error; latencies are wall-clock)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-15s %8s %6s %5s %6s %7s %7s %10s %10s %10s %9s %10s\n",
		"phase", "queries", "done", "shed", "brokn", "dline", "retry", "p50", "p99", "p999", "shed%", "recovery")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-15s %8d %6d %5d %6d %7d %7d %10s %10s %10s %8.1f%% %10s\n",
			p.Name, p.Queries, p.Done, p.Shed, p.Broken, p.Deadlined, p.Retried,
			fmtLatency(p.P50), fmtLatency(p.P99), fmtLatency(p.P999),
			100*p.ShedRate, fmtLatency(p.Recovery))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%d queries, %d results verified bit-identical to the sequential model\n",
		r.TotalQueries, r.Verified)
	if r.GoroutinesLeaked > 0 {
		fmt.Fprintf(w, "GOROUTINE LEAK: %d goroutines survived shutdown\n", r.GoroutinesLeaked)
	}
	if len(r.Failures) == 0 {
		fmt.Fprintln(w, "no violations")
		return
	}
	fmt.Fprintf(w, "%d VIOLATIONS:\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  - %s\n", f)
	}
}

func fmtLatency(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}
