package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/join"
	"repro/internal/router"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// ---------------------------------------------------------------------------
// Sharded-deployment benchmark (scaling extension): N shard servers — real
// HTTP daemons over pager-backed stores, each owning one Hilbert key range —
// behind the query router, driven through churn+query waves.  Three
// contracts are checked and measured:
//
//   - parity: the router's merged join is bit-identical to the brute-force
//     oracle over the same item set, for every shard count and each of the
//     three predicates (intersects, within-distance, kNN), before and after
//     churn;
//   - scaling: wall clock of the fan-out join and its critical path (the
//     slowest shard) across 1/2/4 shards — on a single-core host the
//     critical path is the honest multi-machine scaling indicator, the
//     total wall mostly measures serialization;
//   - failure typing: a shard with a dead disk or a shedding admission gate
//     must surface as a typed *PartialError (with 503s honoured and
//     retried), never as a silently truncated pair set, and parity must
//     hold again after heal+reopen.
// ---------------------------------------------------------------------------

// ShardBenchConfig parameterises the benchmark.  The zero value runs the
// default workload at Scale 1.0.
type ShardBenchConfig struct {
	// Scale multiplies the dataset cardinalities (default 1.0: 10000 R
	// rectangles joined against 7500 S rectangles).
	Scale float64
	// ShardCounts are the deployment sizes to measure (default 1, 2, 4).
	ShardCounts []int
	// ChurnRounds and ChurnPerRound drive the churn waves between the
	// parity checks (defaults 3 and 200 delete+insert pairs).
	ChurnRounds, ChurnPerRound int
	// Repeats is the number of timed joins per deployment; the median is
	// reported (default 3).
	Repeats int
	// PageSize is the page size of every shard's tree and pager (default 4K).
	PageSize int
	// Seed seeds the workload (default 17).
	Seed int64
}

func (c ShardBenchConfig) withDefaults() ShardBenchConfig {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4}
	}
	if c.ChurnRounds <= 0 {
		c.ChurnRounds = 3
	}
	if c.ChurnPerRound <= 0 {
		c.ChurnPerRound = 200
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.PageSize <= 0 {
		c.PageSize = storage.PageSize4K
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
	return c
}

// ShardScalingResult is the measurement of one deployment size.
type ShardScalingResult struct {
	Shards int
	// Pairs is the merged pair count (identical across shard counts).
	Pairs int
	// ParityOK: every predicate in shardPredicates matched the oracle,
	// before and after churn.
	ParityOK bool
	// Rounds is the number of churn rounds committed through the router.
	Rounds int
	// JoinWall is the median wall clock of the merged fan-out join.
	JoinWall time.Duration
	// CriticalPath is the median of the slowest single shard's wall per
	// join — the lower bound a multi-machine deployment converges to.
	CriticalPath time.Duration
	// Speedup and CriticalSpeedup are against the 1-shard deployment.
	Speedup, CriticalSpeedup float64
}

// ShardBenchReport is the outcome of the whole benchmark.
type ShardBenchReport struct {
	Config  ShardBenchConfig
	Results []ShardScalingResult

	// FaultTyped / FaultHealed: a dead-disk shard produced a typed
	// *PartialError naming it (with zero pairs returned), and parity held
	// again after heal+reopen.
	FaultTyped, FaultHealed bool
	// ShedTyped: a permanently shedding shard (503 + Retry-After) was
	// retried the configured number of times and then surfaced as a typed
	// 503 StatusError inside the *PartialError.
	ShedTyped bool
	// ShedAttempts is how many attempts the router made against it.
	ShedAttempts int

	Failures []string
}

// Ok reports whether the benchmark observed no violation.
func (r *ShardBenchReport) Ok() bool { return len(r.Failures) == 0 }

func (r *ShardBenchReport) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// shardProc is one in-process shard daemon: the same server core and HTTP
// surface cmd/spatialjoind mounts, over a FaultFS so the benchmark can
// kill and heal its disk.
type shardProc struct {
	name  string
	fs    *storage.FaultFS
	srv   *server.Server
	httpd *httptest.Server
	close func()
}

func launchShard(name string, keys zorder.KeyRange, sTree *rtree.Tree, pageSize int) (*shardProc, error) {
	treeOpts := rtree.Options{PageSize: pageSize}
	pagerOpts := storage.PagerOptions{ReadRetries: 1, Sleep: func(time.Duration) {}}
	fs := storage.NewFaultFS(storage.NewMemVFS(), storage.FaultScript{})
	pager, err := storage.OpenPager(fs, "shard.db", pageSize, pagerOpts)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.New(treeOpts)
	if err != nil {
		return nil, errors.Join(err, pager.Close())
	}
	store, err := rtree.NewTreeStore(tree, pager)
	if err != nil {
		return nil, errors.Join(err, pager.Close())
	}
	cur := pager
	srv, err := server.New(server.Config{
		Store:      store,
		S:          sTree,
		CacheBytes: 64 * pageSize,
		Sleep:      func(context.Context, time.Duration) {},
		Reopen: func() (*rtree.TreeStore, error) {
			// The benchmark heals the FaultFS before reopening; the old
			// pager carries the injected fault as its latched error.
			//repolint:ignore latchederr reopen discards the pager the injected fault broke
			cur.Close()
			p, err := storage.OpenPager(fs, "shard.db", pageSize, pagerOpts)
			if err != nil {
				return nil, err
			}
			ts, err := rtree.OpenTreeStore(p, treeOpts)
			if err != nil {
				return nil, errors.Join(err, p.Close())
			}
			cur = p
			return ts, nil
		},
	})
	if err != nil {
		return nil, errors.Join(err, pager.Close())
	}
	httpd := httptest.NewServer(server.NewHandler(srv, server.HandlerConfig{Shard: &keys}))
	return &shardProc{
		name:  name,
		fs:    fs,
		srv:   srv,
		httpd: httpd,
		close: func() {
			httpd.Close()
			//repolint:ignore latchederr fault phases may end with a deliberately broken server and pager
			srv.Close()
			//repolint:ignore latchederr fault phases may end with a deliberately broken server and pager
			cur.Close()
		},
	}, nil
}

// shardDeployment launches n shards tiling the key space and a router over
// them, with fast retry timing so fault phases do not dominate wall clock.
func shardDeployment(n int, sTree *rtree.Tree, pageSize int) ([]*shardProc, *router.Router, error) {
	ranges := zorder.UniformKeyRanges(n)
	procs := make([]*shardProc, 0, n)
	shards := make([]router.Shard, n)
	for i, keys := range ranges {
		name := fmt.Sprintf("shard%d", i)
		p, err := launchShard(name, keys, sTree, pageSize)
		if err != nil {
			for _, q := range procs {
				q.close()
			}
			return nil, nil, err
		}
		procs = append(procs, p)
		shards[i] = router.Shard{Name: name, URL: p.httpd.URL, Range: keys}
	}
	rt, err := router.New(router.Config{
		Shards:        shards,
		RetryAttempts: 2,
		RetryBackoff:  time.Millisecond,
		MaxRetryAfter: 5 * time.Millisecond,
	})
	if err != nil {
		for _, q := range procs {
			q.close()
		}
		return nil, nil, err
	}
	return procs, rt, nil
}

func closeDeployment(procs []*shardProc) {
	for _, p := range procs {
		p.close()
	}
}

func itemsToOps(items []rtree.Item, del bool) []server.OpWire {
	ops := make([]server.OpWire, len(items))
	for i, it := range items {
		ops[i] = server.OpWire{XL: it.Rect.XL, YL: it.Rect.YL, XU: it.Rect.XU, YU: it.Rect.YU,
			Data: it.Data, Delete: del}
	}
	return ops
}

func wirePairsHash(pairs [][2]int32) uint64 {
	jp := make([]join.Pair, len(pairs))
	for i, p := range pairs {
		jp[i] = join.Pair{R: p[0], S: p[1]}
	}
	return pairSetHash(jp)
}

// shardPredicates are the join conditions the parity check sends through the
// router, each checked against predicateOracle.
var shardPredicates = []string{"intersects", "within:0.005", "knn:4"}

// RunShardBench runs the full benchmark and returns the report.
func RunShardBench(cfg ShardBenchConfig) *ShardBenchReport {
	cfg = cfg.withDefaults()
	report := &ShardBenchReport{Config: cfg}
	nR := int(10000 * cfg.Scale)
	nS := int(7500 * cfg.Scale)

	rng := rand.New(rand.NewSource(cfg.Seed))
	rItems := tortureItems(rng, nR, 0, 0.02)
	sItems := tortureItems(rng, nS, 1_000_000, 0.02)
	treeOpts := rtree.Options{PageSize: cfg.PageSize}
	sTree, err := rtree.BulkLoadSTR(treeOpts, sItems)
	if err != nil {
		report.fail("building S: %v", err)
		return report
	}
	ctx := context.Background()

	var baseWall, baseCritical time.Duration
	for _, n := range cfg.ShardCounts {
		res, err := runShardScale(ctx, report, cfg, n, rItems, sItems, sTree)
		if err != nil {
			report.fail("%d shards: %v", n, err)
			continue
		}
		if baseWall == 0 {
			baseWall, baseCritical = res.JoinWall, res.CriticalPath
		}
		if res.JoinWall > 0 {
			res.Speedup = float64(baseWall) / float64(res.JoinWall)
		}
		if res.CriticalPath > 0 {
			res.CriticalSpeedup = float64(baseCritical) / float64(res.CriticalPath)
		}
		report.Results = append(report.Results, res)
	}

	runShardFaultPhase(ctx, report, cfg, rItems, sItems, sTree)
	runShardShedPhase(ctx, report, sTree, cfg.PageSize)
	return report
}

// runShardScale measures one deployment size: load, parity over
// shardPredicates, churn rounds with a parity check after, and the timed joins.
func runShardScale(ctx context.Context, report *ShardBenchReport, cfg ShardBenchConfig,
	n int, rItems, sItems []rtree.Item, sTree *rtree.Tree) (ShardScalingResult, error) {

	res := ShardScalingResult{Shards: n, ParityOK: true}
	procs, rt, err := shardDeployment(n, sTree, cfg.PageSize)
	if err != nil {
		return res, err
	}
	defer closeDeployment(procs)

	live := append([]rtree.Item(nil), rItems...)
	if staged, err := rt.Update(ctx, itemsToOps(live, false)); err != nil || staged != len(live) {
		return res, fmt.Errorf("loading %d items: staged %d, err %v", len(live), staged, err)
	}
	if err := rt.Round(ctx); err != nil {
		return res, fmt.Errorf("load round: %w", err)
	}

	checkParity := func(label string) {
		for _, p := range shardPredicates {
			pred, err := join.ParsePredicate(p)
			if err != nil {
				report.fail("%s: %v", p, err)
				res.ParityOK = false
				continue
			}
			oracle := predicateOracle(live, sItems, pred)
			wantHash, wantPairs := pairSetHash(oracle), len(oracle)
			if pred.Kind == join.PredIntersects {
				res.Pairs = wantPairs
			}
			jr, err := rt.Join(ctx, router.JoinRequest{Predicate: p})
			if err != nil {
				report.fail("%d shards, %s, %s: %v", n, label, p, err)
				res.ParityOK = false
				continue
			}
			if jr.Count != wantPairs || wirePairsHash(jr.Pairs) != wantHash {
				report.fail("%d shards, %s, %s: %d pairs (hash %x), oracle %d (hash %x)",
					n, label, p, jr.Count, wirePairsHash(jr.Pairs), wantPairs, wantHash)
				res.ParityOK = false
			}
		}
	}
	checkParity("loaded")

	// Churn waves: delete+insert pairs routed by centre key, committed as
	// one round per wave across every shard.
	churnRng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
	next := int32(500_000)
	for round := 0; round < cfg.ChurnRounds; round++ {
		k := cfg.ChurnPerRound
		if k > len(live) {
			k = len(live)
		}
		fresh := tortureItems(churnRng, k, next, 0.02)
		next += int32(k)
		ops := append(itemsToOps(live[:k], true), itemsToOps(fresh, false)...)
		if _, err := rt.Update(ctx, ops); err != nil {
			return res, fmt.Errorf("churn round %d: %w", round, err)
		}
		if err := rt.Round(ctx); err != nil {
			return res, fmt.Errorf("churn round %d flip: %w", round, err)
		}
		live = append(append([]rtree.Item(nil), live[k:]...), fresh...)
		res.Rounds++
	}
	checkParity("churned")

	// Timed joins over the churned state (intersection), medians reported.
	walls := make([]time.Duration, 0, cfg.Repeats)
	criticals := make([]time.Duration, 0, cfg.Repeats)
	for i := 0; i < cfg.Repeats; i++ {
		start := time.Now()
		jr, err := rt.Join(ctx, router.JoinRequest{})
		wall := time.Since(start)
		if err != nil {
			return res, fmt.Errorf("timed join %d: %w", i, err)
		}
		var critical time.Duration
		for _, o := range jr.Shards {
			if o.Wall > critical {
				critical = o.Wall
			}
		}
		walls = append(walls, wall)
		criticals = append(criticals, critical)
	}
	res.JoinWall = medianDuration(walls)
	res.CriticalPath = medianDuration(criticals)
	return res, nil
}

// runShardFaultPhase kills one shard's disk mid-deployment and checks the
// failure is typed and total, then heals and re-verifies parity.
func runShardFaultPhase(ctx context.Context, report *ShardBenchReport, cfg ShardBenchConfig,
	rItems, sItems []rtree.Item, sTree *rtree.Tree) {

	procs, rt, err := shardDeployment(2, sTree, cfg.PageSize)
	if err != nil {
		report.fail("fault phase: %v", err)
		return
	}
	defer closeDeployment(procs)
	if _, err := rt.Update(ctx, itemsToOps(rItems, false)); err != nil {
		report.fail("fault phase load: %v", err)
		return
	}
	if err := rt.Round(ctx); err != nil {
		report.fail("fault phase round: %v", err)
		return
	}

	procs[1].fs.SetScript(storage.FaultScript{ReadErrEvery: 1})
	res, err := rt.Join(ctx, router.JoinRequest{})
	var perr *router.PartialError
	switch {
	case err == nil:
		report.fail("fault phase: join over a dead shard succeeded with %d pairs", res.Count)
	case !errors.As(err, &perr):
		report.fail("fault phase: untyped error %v", err)
	case len(perr.Failures) != 1 || perr.Failures[0].Shard != procs[1].name:
		report.fail("fault phase: failures %v, want exactly %s", perr.Failures, procs[1].name)
	case res != nil:
		report.fail("fault phase: partial failure still returned pairs")
	default:
		report.FaultTyped = true
	}

	procs[1].fs.SetScript(storage.FaultScript{})
	if err := procs[1].srv.Reopen(); err != nil {
		report.fail("fault phase reopen: %v", err)
		return
	}
	oracle := predicateOracle(rItems, sItems, join.Intersects())
	wantHash, wantPairs := pairSetHash(oracle), len(oracle)
	jr, err := rt.Join(ctx, router.JoinRequest{})
	if err != nil {
		report.fail("fault phase join after heal: %v", err)
		return
	}
	if jr.Count != wantPairs || wirePairsHash(jr.Pairs) != wantHash {
		report.fail("fault phase: healed join %d pairs, oracle %d", jr.Count, wantPairs)
		return
	}
	report.FaultHealed = true
}

// runShardShedPhase puts a 1ns cost budget on one shard — every join sheds
// with 503 + Retry-After — and checks the router retries it the configured
// number of times, then surfaces a typed 503, not a truncated result.
func runShardShedPhase(ctx context.Context, report *ShardBenchReport, sTree *rtree.Tree, pageSize int) {
	ranges := zorder.UniformKeyRanges(2)
	healthy, err := launchShard("healthy", ranges[0], sTree, pageSize)
	if err != nil {
		report.fail("shed phase: %v", err)
		return
	}
	defer healthy.close()

	// The shedding shard: same server core with an admission budget no
	// request can fit.
	treeOpts := rtree.Options{PageSize: pageSize}
	tree, err := rtree.New(treeOpts)
	if err != nil {
		report.fail("shed phase: %v", err)
		return
	}
	pager, err := storage.OpenPager(storage.NewMemVFS(), "shed.db", pageSize, storage.PagerOptions{})
	if err != nil {
		report.fail("shed phase: %v", err)
		return
	}
	store, err := rtree.NewTreeStore(tree, pager)
	if err != nil {
		report.fail("shed phase: %v", err)
		return
	}
	shedSrv, err := server.New(server.Config{Store: store, S: sTree, CostBudget: 1})
	if err != nil {
		report.fail("shed phase: %v", err)
		return
	}
	shedHTTP := httptest.NewServer(server.NewHandler(shedSrv, server.HandlerConfig{Shard: &ranges[1]}))
	defer func() {
		shedHTTP.Close()
		if err := shedSrv.Close(); err != nil {
			report.fail("shed phase close: %v", err)
		}
		if err := pager.Close(); err != nil {
			report.fail("shed phase pager close: %v", err)
		}
	}()

	const attempts = 3
	rt, err := router.New(router.Config{
		Shards: []router.Shard{
			{Name: "healthy", URL: healthy.httpd.URL, Range: ranges[0]},
			{Name: "shedding", URL: shedHTTP.URL, Range: ranges[1]},
		},
		RetryAttempts: attempts,
		RetryBackoff:  time.Millisecond,
		MaxRetryAfter: 5 * time.Millisecond,
	})
	if err != nil {
		report.fail("shed phase: %v", err)
		return
	}
	_, err = rt.Join(ctx, router.JoinRequest{})
	var perr *router.PartialError
	if !errors.As(err, &perr) || len(perr.Failures) != 1 || perr.Failures[0].Shard != "shedding" {
		report.fail("shed phase: error %v, want a *PartialError naming the shedding shard", err)
		return
	}
	var se *router.StatusError
	if !errors.As(perr.Failures[0], &se) || se.Code != http.StatusServiceUnavailable {
		report.fail("shed phase: terminal error %v, want a 503 StatusError", perr.Failures[0])
		return
	}
	report.ShedTyped = true
	report.ShedAttempts = attempts
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// PrintShardReport renders the benchmark report.
func PrintShardReport(w io.Writer, r *ShardBenchReport) {
	fmt.Fprintln(w, "Sharded deployment benchmark: Hilbert-range shards behind the query router")
	fmt.Fprintf(w, "(R=%d x S=%d at scale %.2f, %d churn rounds x %d ops; parity = intersects, within, kNN vs brute-force oracle)\n",
		int(10000*r.Config.Scale), int(7500*r.Config.Scale), r.Config.Scale,
		r.Config.ChurnRounds, r.Config.ChurnPerRound)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-7s %9s %7s %7s %12s %12s %9s %9s\n",
		"shards", "pairs", "parity", "rounds", "join-wall", "crit-path", "speedup", "crit-spd")
	for _, res := range r.Results {
		parity := "OK"
		if !res.ParityOK {
			parity = "FAIL"
		}
		fmt.Fprintf(w, "%-7d %9d %7s %7d %12s %12s %8.2fx %8.2fx\n",
			res.Shards, res.Pairs, parity, res.Rounds,
			fmtLatency(res.JoinWall), fmtLatency(res.CriticalPath),
			res.Speedup, res.CriticalSpeedup)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fault phase: typed=%v healed=%v; shed phase: typed=%v after %d attempts\n",
		r.FaultTyped, r.FaultHealed, r.ShedTyped, r.ShedAttempts)
	fmt.Fprintln(w, "(single-core host: join-wall serialises the shards; crit-path is the per-shard")
	fmt.Fprintln(w, " lower bound a multi-machine deployment converges to)")
	if len(r.Failures) == 0 {
		fmt.Fprintln(w, "no violations")
		return
	}
	fmt.Fprintf(w, "%d VIOLATIONS:\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  - %s\n", f)
	}
}
