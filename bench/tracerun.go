package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/server"
)

// What a traced run adds after its window: the numbers read from the client
// boundary and from the processes, the layer ladder, the micro-loops, and
// the span file.  End-to-end numbers always come from the untraced run.

var costmodelDefault = costmodel.Default()

// clientMetrics reports what the load generator itself saw.
func clientMetrics(l *ledger, lags []time.Duration) {
	l.normalise()
	l.set("client.join_p90_ms", ms(percentile(l.lat[opJoin], 0.9)), "ms")
	l.set("client.join_ttfb_p50_ms", ms(percentile(l.ttfb[opJoin], 0.5)), "ms")
	pct, v := tail(l.lat[opJoin])
	l.set("client.join_ptail_pct", pct, "%")
	l.set("client.join_ptail_ms", ms(v), "ms")
	l.set("client.sched_lag_p99_ms", ms(percentile(lags, 0.99)), "ms")
	l.set("client.verify_ms_p50", ms(percentile(l.verify, 0.5)), "ms")
	l.set("client.update_p50_ms", ms(percentile(l.lat[opUpdate], 0.5)), "ms")
	l.set("client.round_p50_ms", ms(percentile(l.lat[opRound], 0.5)), "ms")
	if plain := percentile(l.plainJoin, 0.5); plain > 0 {
		traced := percentile(l.tracedJoin, 0.5)
		l.set("bench.trace_overhead_pct", 100*float64(traced-plain)/float64(plain), "%")
	}
	if seq, par := percentile(l.lat[opJoin], 0.5), percentile(l.lat[opJoinPar], 0.5); par > 0 {
		l.set("join.par_ms_p50", ms(par), "ms")
		l.set("join.par_speedup", float64(seq)/float64(par), "ratio")
	}
}

// finishTrace runs the parts every traced run shares and writes the spans.
func finishTrace(cfg config, l *ledger, r []rtree.Item) error {
	microLoops(cfg.seed, max(int(float64(1<<20)*cfg.scale), 1<<12), l, l.tr)
	if err := microTree(r, l, l.tr); err != nil {
		return err
	}
	out := cfg.outDir
	if out == "" {
		out = "."
	}
	path, err := l.tr.write(out, cfg.workload)
	if err != nil {
		return err
	}
	l.note("spans written to %s", path)
	l.fillBypassed()
	l.checkPredictions(cfg.workload)
	return nil
}

// checkPredictions states, with the numbers, whether the workload bypasses
// the layers it was built to bypass.  A prediction that is not met is a
// finding about the system or the workload, not a failed op.
func (l *ledger) checkPredictions(workload string) {
	v := func(name string) float64 { return l.values[name].Value }
	say := func(met bool, format string, args ...any) {
		verdict := "met"
		if !met {
			verdict = "NOT MET"
		}
		l.note("prediction %s: %s", verdict, fmt.Sprintf(format, args...))
	}
	encodeSort := v("server.encode_ms_p50") + v("join.sort_pairs_ms_p50")
	switch workload {
	case "batch":
		say(v("storage.reads_per_join") == 0, "batch reads no page: storage.reads_per_join = %g", v("storage.reads_per_join"))
	case "serve-read":
		say(v("buffer.pagecache_hit_rate") >= 0.99, "the tree fits the cache: buffer.pagecache_hit_rate = %.4f", v("buffer.pagecache_hit_rate"))
		say(encodeSort > v("join.traverse_ms_p50"), "encode + sort (%.2f ms) exceed traversal (%.2f ms)", encodeSort, v("join.traverse_ms_p50"))
	case "serve-churn":
		say(v("storage.reads_per_join") > 0, "joins read pages: storage.reads_per_join = %.1f", v("storage.reads_per_join"))
		say(v("buffer.pagecache_hit_rate") < 0.99, "the cache is smaller than the tree: buffer.pagecache_hit_rate = %.4f", v("buffer.pagecache_hit_rate"))
		say(encodeSort <= v("join.traverse_ms_p50"), "encode + sort (%.2f ms) stay below traversal (%.2f ms)", encodeSort, v("join.traverse_ms_p50"))
	case "sharded":
		say(v("router.gateway_overhead_ms") > 0, "the router costs time: router.gateway_overhead_ms = %.2f", v("router.gateway_overhead_ms"))
	}
}

// traceBatch measures the join layer from the library boundary: the batch
// workload has no rungs above it.
func traceBatch(cfg config, l *ledger, in *batchInputs, t *batchTrees) error {
	clientMetrics(l, nil)
	calls := ladderCalls / 2
	opts := batchOptions()
	discard := opts
	discard.DiscardPairs = true
	// The two rungs alternate call by call, so that a slow minute on the
	// host lands on both and their difference stays the materialisation.
	var joinRes *join.Result
	var fulls, traverses []time.Duration
	var discardMallocs uint64
	for i := 0; i < 2*calls; i++ {
		name, o, into := "join.bare", opts, &fulls
		if i%2 == 1 {
			name, o, into = "join.bare.discard", discard, &traverses
		}
		m0 := mallocs()
		start := time.Now()
		res, err := join.Join(t.r, t.s, o)
		end := time.Now()
		if err != nil {
			return err
		}
		if res.Count != in.want[opJoin].count {
			return fmt.Errorf("ladder %s: count %d, oracle %d", name, res.Count, in.want[opJoin].count)
		}
		if o.DiscardPairs {
			discardMallocs += mallocs() - m0
		} else {
			joinRes = res
		}
		l.tr.add("ladder."+name, "", i/2, start, end)
		*into = append(*into, end.Sub(start))
	}
	full, traverse := percentile(fulls, 0.5), percentile(traverses, 0.5)
	l.set("join.allocs_per_op", float64(discardMallocs)/float64(calls), "count")

	scratch := make([]join.Pair, len(joinRes.Pairs))
	var sorts []time.Duration
	for i := 0; i < calls; i++ {
		copy(scratch, joinRes.Pairs)
		start := time.Now()
		join.SortPairs(scratch)
		end := time.Now()
		l.tr.add("ladder.join.SortPairs", "", i, start, end)
		sorts = append(sorts, end.Sub(start))
	}
	l.set("join.sort_pairs_ms_p50", ms(percentile(sorts, 0.5)), "ms")
	l.set("join.first_pair_us", us(percentile(l.ttfb[opJoin], 0.5)), "us")

	knnRes, _, _, err := batchOp(t, opKNN)
	if err != nil {
		return err
	}
	parRes, _, _, err := batchOp(t, opJoinPar)
	if err != nil {
		return err
	}
	setJoinCosts(l, joinRes, knnRes, parRes, traverse, full, batchPageSize)
	l.set("ladder.top_ms_p50", ms(full), "ms")

	// refine: the paper's filter-and-refine split on the same pair, exact
	// geometry being the segment each MBR was derived from.  The refinement
	// share is the object join's wall time less the filter join's.
	ropts := rtree.Options{PageSize: batchPageSize}
	rr, err := core.BuildRelation("streets", core.LineObjectsFromItems(in.r), ropts, true)
	if err != nil {
		return err
	}
	rs, err := core.BuildRelation("rivers", core.LineObjectsFromItems(in.s), ropts, true)
	if err != nil {
		return err
	}
	var walls []time.Duration
	var candidates int
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := core.SpatialJoin(rr, rs, core.JoinOptions{Type: core.ObjectJoin, Filter: opts})
		end := time.Now()
		if err != nil {
			return err
		}
		candidates = res.FilterPairs
		l.tr.add("core.SpatialJoin", "", i, start, end)
		walls = append(walls, end.Sub(start))
	}
	if candidates > 0 {
		l.set("refine.ns_per_candidate", float64((percentile(walls, 0.5)-full).Nanoseconds())/float64(candidates), "ns")
	}
	return finishTrace(cfg, l, in.r)
}

// procUsage is the CPU time of a deployment's processes at one instant.
type procUsage struct{ daemons, router float64 }

func (d *deployment) usage() procUsage {
	u := procUsage{daemons: d.cpuSeconds()}
	if d.router != nil {
		u.router = d.router.cpuSeconds()
	}
	return u
}

// traceServe reads the processes' and the daemons' own counters for the
// window just run, then measures restart (open loop), the gateway's cost
// (sharded) and the in-process ladder.
func traceServe(cfg config, l *ledger, run *serveRun, before procUsage, lags []time.Duration) error {
	d := run.d
	clientMetrics(l, lags)
	after := d.usage()
	ops := float64(max(l.attempted, 1))
	l.set("spatialjoind.cpu_ms_per_op", 1000*(after.daemons-before.daemons)/ops, "ms")
	var rss float64
	for _, p := range d.daemons {
		rss = max(rss, p.rssPeakMB())
	}
	l.set("spatialjoind.rss_peak_mb", rss, "MB")
	if d.router != nil {
		l.set("spatialjoinrouter.cpu_ms_per_op", 1000*(after.router-before.router)/ops, "ms")
		l.set("spatialjoinrouter.rss_peak_mb", d.router.rssPeakMB(), "MB")
	}

	var shed, retries, deadlined int64
	c := newClient("")
	defer c.close()
	for _, p := range d.daemons {
		c.base = p.url
		rep, err := c.do(http.MethodGet, "/stats", nil, time.Time{})
		if err != nil {
			return err
		}
		var sw server.StatsWire
		if err := json.Unmarshal(rep.body, &sw); err != nil {
			return fmt.Errorf("GET /stats: %w", err)
		}
		shed += sw.Stats.Shed
		retries += sw.Stats.Retries
		deadlined += sw.Stats.Deadlined
	}
	l.set("server.shed", float64(shed), "count")
	l.set("server.retries", float64(retries), "count")
	l.set("server.deadlined", float64(deadlined), "count")

	if run.in.spec.rate > 0 {
		if err := run.restartCycles(l); err != nil {
			return err
		}
	}
	if d.router != nil {
		if err := run.gatewayOverhead(l); err != nil {
			return err
		}
	}
	dir := filepath.Join(d.dir, "ladder")
	if err := mkdir(dir); err != nil {
		return err
	}
	// The ladder measures in this process; the daemons would only compete
	// with it for the two cores.
	d.stop()
	runtime.GC()
	if err := runLadder(l, l.tr, run.in, dir); err != nil {
		return err
	}
	return finishTrace(cfg, l, run.in.r)
}

// restartCycles measures crash recovery as a client sees it: SIGKILL the
// daemon (every round has been acknowledged and nothing is staged), start
// it again on the same file, and time until the first verified join.
func (run *serveRun) restartCycles(l *ledger) error {
	d := run.d
	var cycles []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		d.daemons[0].kill()
		p, err := startProc(d.bins.daemon, run.in.daemonArgs(d.dbs[0], ""), d.daemons[0].log)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		d.daemons[0], d.entry = p, p.url
		c := newClient(p.url)
		_, _, err = d.joinOnce(c, opJoin, run.lastState, time.Time{})
		end := time.Now()
		c.close()
		l.attempted++
		if err != nil {
			l.failed++
			return fmt.Errorf("restart %d: first join: %w", i, err)
		}
		l.tr.add("spatialjoind.restart", "", i, start, end)
		cycles = append(cycles, end.Sub(start))
	}
	l.set("spatialjoind.restart_ms_p50", ms(percentile(cycles, 0.5)), "ms")
	return nil
}

// gatewayOverhead starts one unsharded daemon on the same R and S beside
// the sharded deployment and alternates the same full join between the two,
// so that the difference of the medians is the router's fan-out, shard
// decode, verification, merge and re-encode and nothing else.
func (run *serveRun) gatewayOverhead(l *ledger) error {
	d := run.d
	dir := filepath.Join(d.dir, "single")
	if err := mkdir(dir); err != nil {
		return err
	}
	p, err := startProc(d.bins.daemon, run.in.daemonArgs(filepath.Join(dir, "r.db"), ""), filepath.Join(dir, "daemon.log"))
	if err != nil {
		return err
	}
	defer p.kill()
	single, routed := newClient(p.url), newClient(d.entry)
	defer single.close()
	defer routed.close()
	if _, err := ingest(single, run.in.r); err != nil {
		return err
	}
	var viaRouter, direct []time.Duration
	for i := 0; i < ladderCalls+3; i++ {
		for _, c := range []*client{routed, single} {
			start := time.Now()
			rep, _, err := d.joinOnce(c, opJoin, 0, start)
			if err != nil {
				return fmt.Errorf("gateway comparison: %w", err)
			}
			if i < 3 {
				continue // warm-up
			}
			if c == routed {
				l.tr.add("gateway.routed", "", i, start, start.Add(rep.latency))
				viaRouter = append(viaRouter, rep.latency)
			} else {
				l.tr.add("gateway.direct", "", i, start, start.Add(rep.latency))
				direct = append(direct, rep.latency)
			}
		}
	}
	l.set("router.gateway_overhead_ms", ms(percentile(viaRouter, 0.5)-percentile(direct, 0.5)), "ms")
	return nil
}
