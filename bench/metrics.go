package main

// The two metric sets.  BENCHMARK.json at the repository root carries the
// same names with units, directions and regression bounds; the smoke test
// checks that the two agree.

// endToEnd is what a user of the system sees; every workload reports every
// one of these from an untraced run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"join_p50_ms", "ms"},
	{"count_p50_ms", "ms"},
	{"within_p50_ms", "ms"},
	{"knn_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer is what a traced run reports, one layer (package or process) per
// prefix.  A workload that bypasses a layer reports 0 for it, which is the
// prediction a change to that layer is checked against.
var perLayer = []struct{ name, unit string }{
	{"geom.intersects_ns_per_op", "ns"},
	{"geom.rectdist_ns_per_op", "ns"},
	{"sweep.append_pairs_ns_per_rect", "ns"},
	{"sweep.append_pairs_allocs_per_op", "count"},
	{"buffer.tracker_access_ns_per_op", "ns"},
	{"buffer.lru_hit_rate", "ratio"},
	{"buffer.pagecache_get_ns_per_op", "ns"},
	{"buffer.pagecache_hit_rate", "ratio"},
	{"buffer.pagecache_evictions", "count"},
	{"storage.read_us_per_page", "us"},
	{"storage.reads_per_join", "count"},
	{"storage.commit_ms_p50", "ms"},
	{"storage.sync_ms_p50", "ms"},
	{"storage.syncs_per_round", "count"},
	{"storage.wal_bytes_per_op", "B"},
	{"storage.write_amp", "ratio"},
	{"storage.space_amp", "ratio"},
	{"storage.checkpoints", "count"},
	{"rtree.bulkload_str_ms", "ms"},
	{"rtree.insert_buffered_us_per_op", "us"},
	{"rtree.hint_hit_rate", "ratio"},
	{"rtree.store_commit_ms_p50", "ms"},
	{"rtree.pages_written_per_round", "count"},
	{"rtree.open_store_ms", "ms"},
	{"join.traverse_ms_p50", "ms"},
	{"join.materialise_ms_p50", "ms"},
	{"join.sort_pairs_ms_p50", "ms"},
	{"join.first_pair_us", "us"},
	{"join.allocs_per_op", "count"},
	{"join.comparisons", "count"},
	{"join.disk_reads", "count"},
	{"join.pairs", "count"},
	{"join.knn_dist_computations", "count"},
	{"join.par_ms_p50", "ms"},
	{"join.par_speedup", "ratio"},
	{"join.par_time_skew", "ratio"},
	{"join.par_stolen_tasks", "count"},
	{"refine.ns_per_candidate", "ns"},
	{"costmodel.ns_per_comparison", "ns"},
	{"costmodel.counted_over_wall", "ratio"},
	{"server.join_overhead_us", "us"},
	{"server.join_ms_p50", "ms"},
	{"server.encode_ms_p50", "ms"},
	{"server.encode_allocs_per_op", "count"},
	{"server.response_bytes", "B"},
	{"server.http_transport_ms_p50", "ms"},
	{"server.round_ms_p50", "ms"},
	{"server.update_us_per_op", "us"},
	{"server.shed", "count"},
	{"server.retries", "count"},
	{"server.deadlined", "count"},
	{"router.join_ms_p50", "ms"},
	{"router.shard_wall_max_ms_p50", "ms"},
	{"router.merge_ms_p50", "ms"},
	{"router.gateway_overhead_ms", "ms"},
	{"router.attempts_per_request", "count"},
	{"router.update_us_per_op", "us"},
	{"zorder.hilbert_key_ns_per_op", "ns"},
	{"spatialjoind.cpu_ms_per_op", "ms"},
	{"spatialjoind.rss_peak_mb", "MB"},
	{"spatialjoind.restart_ms_p50", "ms"},
	{"spatialjoinrouter.cpu_ms_per_op", "ms"},
	{"spatialjoinrouter.rss_peak_mb", "MB"},
	{"client.join_p90_ms", "ms"},
	{"client.join_ttfb_p50_ms", "ms"},
	{"client.join_ptail_ms", "ms"},
	{"client.join_ptail_pct", "%"},
	{"client.sched_lag_p99_ms", "ms"},
	{"client.verify_ms_p50", "ms"},
	{"client.update_p50_ms", "ms"},
	{"client.round_p50_ms", "ms"},
	{"ladder.top_ms_p50", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.oracle_s", "s"},
}

// fillBypassed reports 0 for every per-layer metric the workload's traced
// run had no way to exercise, and says which.
func (l *ledger) fillBypassed() {
	var bypassed []string
	for _, m := range perLayer {
		if _, ok := l.values[m.name]; !ok {
			l.set(m.name, 0, m.unit)
			bypassed = append(bypassed, m.name)
		}
	}
	if len(bypassed) > 0 {
		l.note("bypassed by this workload (reported as 0): %v", bypassed)
	}
}

// setEndToEnd derives the end-to-end metrics from the recorded latencies.
// Latencies are over verified-correct replies only; each is reported with
// its sample count.
func (l *ledger) setEndToEnd() {
	l.normalise()
	for _, m := range []struct {
		name string
		op   opKind
		p    float64
		ttfb bool
	}{
		{"join_p50_ms", opJoin, 0.5, false},
		{"count_p50_ms", opCount, 0.5, false},
		{"within_p50_ms", opWithin, 0.5, false},
		{"knn_p50_ms", opKNN, 0.5, false},
	} {
		d := l.lat[m.op]
		if m.ttfb {
			d = l.ttfb[m.op]
		}
		l.set(m.name, ms(percentile(d, m.p)), "ms")
	}
	// Throughput: a closed loop's verified ops over the time they spent on
	// the clock (verification happens off it); an open loop's verified joins
	// over the window, since its arrival schedule, not the system, sets the
	// pace.
	var ops int
	busy := l.openWindow
	for k := opJoin; k <= opKNN; k++ {
		ops += len(l.lat[k])
		if l.openWindow == 0 {
			busy += sumDur(l.lat[k])
		}
	}
	if busy > 0 {
		l.set("ops_per_s", float64(ops)/busy.Seconds(), "1/s")
	}
}

// noteSamples logs, for each op, how many verified samples it has and their
// median as the clock read it, and what the reference kernel showed.
func (l *ledger) noteSamples() {
	for k := opKind(0); k < numOps; k++ {
		if n := len(l.raw[k]); n > 0 {
			l.note("%s: %d verified samples, p50 %.3f ms as the clock read it", k, n, ms(l.rawMedian(k)))
		}
	}
	l.note("reference kernel: %d samples, median slowdown %.3f against its nominal %v", len(l.speed.factor), median(append([]float64(nil), l.speed.factor...)), refNominal)
}
