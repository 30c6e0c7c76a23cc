package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/rtree"
)

// The three daemon workloads drive real spatialjoind (and spatialjoinrouter)
// processes over loopback HTTP, the path an application takes.  They differ
// in what dominates a request:
//
//   - serve-read: the tree fits the page cache, so sorting, JSON encoding and
//     transfer dominate; a traversal change should barely show.
//   - serve-churn: the cache is smaller than the tree and a writer commits a
//     round every 500 ms, so traversal, physical page reads and the epoch
//     flip dominate; it is an open loop.
//   - sharded: serve-read's exact data behind the router over two shards, so
//     the difference to serve-read is the router's fan-out and merge.

type mixEntry = struct {
	op     opKind
	weight int
}

// serveSpec describes one daemon workload.
type serveSpec struct {
	rItems   int
	rMaxSide float64
	sItems   int
	sSide    float64
	// cacheBytes is the daemon's -cache (0 keeps its 1 MiB default) and
	// noCostShedding passes -cost-budget -1ns.
	cacheBytes     int
	noCostShedding bool
	shards         []string // -shard key ranges; nil runs one unsharded daemon
	mix            []mixEntry

	// Open loop (rate > 0): paced arrivals at rate per second, each timed
	// from its due time and failed when later than lateAfter, beside a writer
	// that every writeEvery posts one update of writePer deletes and
	// writePer inserts followed by a round.
	rate       float64
	writeEvery time.Duration
	writePer   int
	lateAfter  time.Duration
}

var serveReadSpec = serveSpec{
	rItems: 10000, rMaxSide: 0.02, sItems: 7500, sSide: 0.02,
	mix: []mixEntry{{opJoin, 6}, {opCount, 6}, {opWithin, 3}, {opKNN, 2}},
}

var shardedSpec = serveSpec{
	rItems: 10000, rMaxSide: 0.02, sItems: 7500, sSide: 0.02,
	shards: []string{"0:2147483648", "2147483648:4294967296"},
	mix:    []mixEntry{{opJoin, 6}, {opCount, 6}, {opWithin, 3}, {opKNN, 2}},
}

// serve-churn switches cost-based shedding off: the admission estimate prices
// a join with the paper's 1993 disk and CPU constants, which puts one join of
// this size at many seconds and would shed every overlapping request.
// server.shed is still reported and expected to stay 0.
var serveChurnSpec = serveSpec{
	rItems: 20000, rMaxSide: 0.004, sItems: 10000, sSide: 0.005,
	cacheBytes: 128 << 10, noCostShedding: true,
	mix:        []mixEntry{{opJoin, 5}, {opCount, 5}, {opWithin, 2}, {opKNN, 1}},
	rate:       12,
	writeEvery: 500 * time.Millisecond,
	writePer:   100,
	lateAfter:  time.Second,
}

// predIndex maps an op to its slot in the churn oracle's predicate list.
var servePreds = []predicate{{}, {eps: withinEps}, {k: knnK}}

func predIndex(op opKind) int {
	switch op {
	case opWithin:
		return 1
	case opKNN:
		return 2
	}
	return 0
}

// serveInputs is everything generated from the seed for one daemon workload.
type serveInputs struct {
	spec  serveSpec
	r, s  []rtree.Item
	sSeed int64
	// states[k] holds the oracle's answers (one per servePreds entry) after
	// the first k churn batches; a closed-loop workload has only states[0].
	states   [][]answer
	schedule []churnBatch
	updates  [][]byte // pre-encoded POST /update bodies of the schedule
}

func genServe(spec serveSpec, cfg config) *serveInputs {
	rng := rand.New(rand.NewSource(cfg.seed))
	spec.rItems = scaled(spec.rItems, cfg.scale)
	spec.sItems = scaled(spec.sItems, cfg.scale)
	in := &serveInputs{spec: spec, sSeed: rng.Int63()}
	in.r = uniformRelation(rng, spec.rItems, spec.rMaxSide, 0)
	in.s = daemonS(in.sSeed, spec.sItems, spec.sSide)
	// An open loop churns R through its whole window; a closed loop needs a
	// few batches only for the traced run's write-path rungs.
	batches, per := ladderRounds, 100
	if spec.rate > 0 {
		batches, per = int(cfg.window/spec.writeEvery)+1, spec.writePer
	}
	in.schedule = churnSchedule(rng, in.r, batches, min(per, spec.rItems/4), spec.rMaxSide)
	return in
}

func (in *serveInputs) buildOracle() {
	o := newChurnOracle(newGrid(in.s), servePreds, in.r)
	in.states = append(in.states, o.snapshot())
	for _, b := range in.schedule {
		for _, it := range b.deletes {
			o.remove(it.Data)
		}
		for _, it := range b.inserts {
			o.insert(it)
		}
		in.states = append(in.states, o.snapshot())
		in.updates = append(in.updates, updateBody(b.deletes, b.inserts))
	}
}

func (in *serveInputs) want(state int, op opKind) answer { return in.states[state][predIndex(op)] }

// deployment is one running instance of the system under test.
type deployment struct {
	daemons []*proc
	dbs     []string
	router  *proc
	entry   string // base URL the load generator talks to
	bins    binaries
	in      *serveInputs
	dir     string
}

func (in *serveInputs) daemonArgs(db, shard string) []string {
	args := []string{"-db", db, "-round", "0",
		"-s-items", fmt.Sprint(in.spec.sItems), "-s-side", fmt.Sprint(in.spec.sSide),
		"-seed", fmt.Sprint(in.sSeed)}
	if in.spec.cacheBytes > 0 {
		args = append(args, "-cache", fmt.Sprint(in.spec.cacheBytes))
	}
	if in.spec.noCostShedding {
		args = append(args, "-cost-budget", "-1ns")
	}
	if shard != "" {
		args = append(args, "-shard", shard)
	}
	return args
}

// startDeployment starts the daemons (and the router in front of shards) on
// fresh database files under dir.
func startDeployment(in *serveInputs, bins binaries, dir string) (*deployment, error) {
	d := &deployment{bins: bins, in: in, dir: dir}
	shards := in.spec.shards
	if len(shards) == 0 {
		shards = []string{""}
	}
	for i, sh := range shards {
		db := filepath.Join(dir, fmt.Sprintf("r%d.db", i))
		p, err := startProc(bins.daemon, in.daemonArgs(db, sh), filepath.Join(dir, fmt.Sprintf("daemon%d.log", i)))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.daemons = append(d.daemons, p)
		d.dbs = append(d.dbs, db)
	}
	d.entry = d.daemons[0].url
	if len(in.spec.shards) > 0 {
		urls := make([]string, len(d.daemons))
		for i, p := range d.daemons {
			urls[i] = p.url
		}
		p, err := startProc(bins.router, []string{"-shards", strings.Join(urls, ",")}, filepath.Join(dir, "router.log"))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.router = p
		d.entry = p.url
	}
	return d, nil
}

// stop kills every process of the deployment; data files are left for the
// scratch directory's removal.
func (d *deployment) stop() {
	if d.router != nil {
		d.router.kill()
	}
	for _, p := range d.daemons {
		p.kill()
	}
}

// ingest loads items through POST /update in batches and commits them with
// one POST /round.  It returns the epoch the round reports (0 from the
// router, whose round reply carries none).
func ingest(c *client, items []rtree.Item) (uint64, error) {
	const batch = 1000
	for i := 0; i < len(items); i += batch {
		j := min(i+batch, len(items))
		rep, err := c.post("/update", updateBody(nil, items[i:j]), time.Time{})
		if err != nil {
			return 0, fmt.Errorf("ingest: %w", err)
		}
		if rep.status != http.StatusAccepted {
			return 0, fmt.Errorf("ingest: POST /update returned %d: %s", rep.status, rep.body)
		}
	}
	return commitRound(c)
}

func commitRound(c *client) (uint64, error) {
	rep, err := c.post("/round", nil, time.Time{})
	if err != nil {
		return 0, fmt.Errorf("round: %w", err)
	}
	if rep.status != http.StatusOK {
		return 0, fmt.Errorf("POST /round returned %d: %s", rep.status, rep.body)
	}
	jr, err := parseJoinReply(rep.body)
	return jr.epoch, err
}

// joinOnce issues one join of the given type and checks it against the
// oracle's answer for the given churn state.
func (d *deployment) joinOnce(c *client, op opKind, state int, start time.Time) (reply, joinReply, error) {
	rep, err := c.post("/join", requestBody(op), start)
	if err != nil {
		return rep, joinReply{}, err
	}
	if rep.status != http.StatusOK {
		return rep, joinReply{}, fmt.Errorf("status %d: %.200s", rep.status, rep.body)
	}
	jr, err := parseJoinReply(rep.body)
	if err != nil {
		return rep, jr, err
	}
	return rep, jr, checkJoinReply(op, jr, d.in.want(state, op))
}

// setupServe is what an operator pays before the first request can be
// served warm: start the processes, ingest R, commit the first round, and
// run each request type once.  It returns the epoch serving state 0.
func setupServe(in *serveInputs, bins binaries, dir string) (*deployment, uint64, error) {
	d, err := startDeployment(in, bins, dir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(d.entry)
	defer c.close()
	epoch, err := ingest(c, in.r)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	for _, m := range in.spec.mix {
		if _, _, err := d.joinOnce(c, m.op, 0, time.Time{}); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up %v: %w", m.op, err)
		}
	}
	return d, epoch, nil
}

// serveRun is the part the three daemon workloads share: inputs, oracle,
// binaries, repeated set-up.  It leaves the last deployment running.
type serveRun struct {
	in     *serveInputs
	d      *deployment
	epoch0 uint64
	// lastState is how many churn batches the daemon has committed.
	lastState int
}

// speedPeriod is how often the open loop samples the reference kernel.
const speedPeriod = 50 * time.Millisecond

func prepareServe(spec serveSpec, cfg config, l *ledger) (*serveRun, error) {
	in := genServe(spec, cfg)
	t0 := time.Now()
	in.buildOracle()
	l.set("bench.oracle_s", time.Since(t0).Seconds(), "s")

	scratch, err := newScratch(cfg)
	if err != nil {
		return nil, err
	}
	bins, err := daemonBinaries(cfg, scratch)
	if err != nil {
		return nil, err
	}
	l.set("bench.build_s", bins.buildSeconds, "s")

	run := &serveRun{in: in}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if run.d != nil {
			run.d.stop()
		}
		dir := filepath.Join(scratch, fmt.Sprintf("setup%d", i))
		if err := mkdir(dir); err != nil {
			return nil, err
		}
		var epoch uint64
		d, took, err := timedSetupOf(l, func() (d *deployment, err error) {
			d, epoch, err = setupServe(in, bins, dir)
			return d, err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		run.d, run.epoch0 = d, epoch
	}
	l.set("setup_s", median(setups), "s")
	if cfg.trace {
		l.tr = newTracer()
	}
	return run, nil
}

// closedLoop is one load-generator connection sending its next request as
// soon as the previous reply has been read and checked.
func (run *serveRun) closedLoop(cfg config, l *ledger) {
	c := newClient(run.d.entry)
	defer c.close()
	cycle := opCycle(rand.New(rand.NewSource(cfg.seed^0x5eed)), run.in.spec.mix)
	deadline := time.Now().Add(cfg.window)
	for i := 0; time.Now().Before(deadline); i++ {
		op := cycle[i%len(cycle)]
		start := time.Now()
		rep, _, err := run.d.joinOnce(c, op, 0, start)
		checked := time.Now()
		l.speed.sample()
		if err != nil {
			l.fail(op, "%v", err)
			continue
		}
		l.okRequest(i, l.tracedCycle(i, len(cycle)), op, start, rep.latency, rep.ttfb, checked)
	}
}

func runServeRead(cfg config, l *ledger) error { return runClosed(serveReadSpec, cfg, l) }
func runSharded(cfg config, l *ledger) error   { return runClosed(shardedSpec, cfg, l) }

func runClosed(spec serveSpec, cfg config, l *ledger) error {
	run, err := prepareServe(spec, cfg, l)
	if err != nil {
		return err
	}
	before := run.d.usage()
	run.closedLoop(cfg, l)
	if cfg.trace {
		return traceServe(cfg, l, run, before, nil)
	}
	return nil
}

// pending is one open-loop request's outcome, checked after the window when
// every epoch's oracle state is known.
type pending struct {
	op      opKind
	rep     reply
	jr      joinReply
	err     error
	lag     time.Duration // how late the generator sent it
	start   time.Time
	checked time.Time
}

func runServeChurn(cfg config, l *ledger) error {
	run, err := prepareServe(serveChurnSpec, cfg, l)
	if err != nil {
		return err
	}
	before := run.d.usage()
	lags := run.openLoop(cfg, l)
	if cfg.trace {
		return traceServe(cfg, l, run, before, lags)
	}
	return nil
}

// openLoop sends joins on a seeded schedule whatever the daemon's state,
// each timed from its due time, while the writer churns R.  It returns how
// late the generator itself ran, per request.
func (run *serveRun) openLoop(cfg config, l *ledger) []time.Duration {
	spec := run.in.spec
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	cycle := opCycle(rng, spec.mix)
	// Arrivals are paced, not Poisson: one per 1/rate seconds, each moved by
	// a seeded jitter of up to a quarter of the gap either way.  The schedule
	// ignores the daemon's state just the same, but without the clumps whose
	// placement would make one seed's latencies incomparable with another's.
	gap := 1 / spec.rate
	var due []time.Duration
	for i := 0; ; i++ {
		t := (float64(i) + 0.5 + 0.5*(rng.Float64()-0.5)) * gap
		if t >= cfg.window.Seconds() {
			break
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	results := make([]pending, len(due))

	// More connections than requests ever overlap on a healthy daemon; if
	// all are busy the dispatcher waits and the wait counts as latency.
	const connections = 8
	slots := make(chan *client, connections)
	for i := 0; i < connections; i++ {
		c := newClient(run.d.entry)
		defer c.close()
		slots <- c
	}

	// epochState maps the epoch a round reported to the number of batches
	// applied at that point.  Only the writer writes it, and it is read after
	// the writer has finished.
	epochState := map[uint64]int{run.epoch0: 0}
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		l.speed.every(speedPeriod, stopSampling)
	}()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.writer(cfg, l, start, epochState)
	}()

	for i := range due {
		at := start.Add(due[i])
		time.Sleep(time.Until(at))
		c := <-slots
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			p := &results[i]
			p.op, p.start, p.lag = cycle[i%len(cycle)], at, time.Since(at)
			p.rep, p.err = c.post("/join", requestBody(p.op), at)
			if p.err == nil && p.rep.status == http.StatusOK {
				p.jr, p.err = parseJoinReply(p.rep.body)
			}
			p.checked = time.Now()
			p.rep.body = nil // the buffer goes back with the connection
			slots <- c
		}(i, c)
	}
	wg.Wait()
	close(stopSampling)
	sampling.Wait()

	// Goodput is counted over the time the schedule actually took to drain.
	l.openWindow = time.Since(start)
	lags := make([]time.Duration, len(results))
	for i := range results {
		p := &results[i]
		lags[i] = p.lag
		state, known := epochState[p.jr.epoch]
		switch {
		case p.err != nil:
			l.fail(p.op, "%v", p.err)
		case p.rep.status != http.StatusOK:
			l.fail(p.op, "status %d", p.rep.status)
		case p.rep.latency > spec.lateAfter:
			l.fail(p.op, "late: %v after its due time", p.rep.latency)
		case !known:
			l.fail(p.op, "reply from epoch %d, which no round reported", p.jr.epoch)
		default:
			if err := checkJoinReply(p.op, p.jr, run.in.want(state, p.op)); err != nil {
				l.fail(p.op, "epoch %d: %v", p.jr.epoch, err)
			} else {
				l.okRequest(i, l.tracedCycle(i, len(cycle)), p.op, p.start, p.rep.latency, p.rep.ttfb, p.checked)
			}
		}
	}
	return lags
}

// writer posts the churn schedule: every writeEvery one update batch, then a
// round, which makes the batch visible and reports the epoch it created.
func (run *serveRun) writer(cfg config, l *ledger, start time.Time, epochState map[uint64]int) {
	c := newClient(run.d.entry)
	defer c.close()
	spec := run.in.spec
	for k, body := range run.in.updates {
		at := start.Add(time.Duration(k+1) * spec.writeEvery)
		if at.Sub(start) >= cfg.window {
			return
		}
		time.Sleep(time.Until(at))
		t0 := time.Now()
		rep, err := c.post("/update", body, t0)
		if err != nil || rep.status != http.StatusAccepted {
			l.fail(opUpdate, "status %d err %v", rep.status, err)
			return // the oracle's states no longer line up with the daemon
		}
		l.ok(opUpdate, t0, rep.latency, 0)
		l.tr.add("client.update", "", k, t0, t0.Add(rep.latency))
		t1 := time.Now()
		rep, err = c.post("/round", nil, t1)
		if err != nil || rep.status != http.StatusOK {
			l.fail(opRound, "status %d err %v", rep.status, err)
			return
		}
		jr, err := parseJoinReply(rep.body)
		if err != nil {
			l.fail(opRound, "%v", err)
			return
		}
		l.ok(opRound, t1, rep.latency, 0)
		l.tr.add("client.round", "", k, t1, t1.Add(rep.latency))
		epochState[jr.epoch] = k + 1
		run.lastState = k + 1
	}
}

// cpuSeconds sums the CPU time of the deployment's daemons.
func (d *deployment) cpuSeconds() float64 {
	var s float64
	for _, p := range d.daemons {
		s += p.cpuSeconds()
	}
	return s
}
