package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/router"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// The layer ladder.  After a traced run's window the benchmark builds the
// daemon's stack in-process from the same inputs — pager on an OS file,
// tree store, server, HTTP handler, and for the sharded workload a router
// over two such shards — and replays the same join once per rung, each rung
// entering the stack one layer lower than the one before:
//
//	router.Join        (sharded only)
//	http               loopback HTTP round trip to the handler
//	handler            the handler into a response recorder
//	server.Join        pin, estimate, admit, join
//	join.store         join.Join with the store as page source + a page cache
//	join.bare          join.Join on the bare trees
//
// Every call is a span whose parent is the rung above.  A rung's self time
// is its median minus the next rung's, and a later change can say which
// rung its saving sits in.  The counted costs, cache and pager statistics
// and the write path (update, round, commit, reopen) are read at the same
// boundaries.  Nothing here feeds an end-to-end metric.

const (
	ladderCalls       = 40 // calls per rung
	ladderRounds      = 8  // churn rounds replayed on the write path
	ladderJoinsPerRnd = 3  // discard joins after each of those rounds
)

// ladderServer is one in-process replica of a spatialjoind process.
type ladderServer struct {
	path    string
	shard   *zorder.KeyRange
	pager   *storage.Pager
	store   *rtree.TreeStore
	srv     *server.Server
	handler http.Handler
	httpd   *httptest.Server
}

// cache is the page-cache size the workload's daemons run with.
func (s serveSpec) cache() int {
	if s.cacheBytes == 0 {
		return 1 << 20 // the daemon's -cache default
	}
	return s.cacheBytes
}

func (in *serveInputs) serverConfig(store *rtree.TreeStore, sTree *rtree.Tree) server.Config {
	cfg := server.Config{Store: store, S: sTree, CacheBytes: in.spec.cache()}
	if in.spec.noCostShedding {
		cfg.CostBudget = -1
	}
	return cfg
}

func openLadderServer(in *serveInputs, sTree *rtree.Tree, path, shard string) (*ladderServer, error) {
	ls := &ladderServer{path: path}
	if shard != "" {
		kr, err := zorder.ParseKeyRange(shard)
		if err != nil {
			return nil, err
		}
		ls.shard = &kr
	}
	pager, err := storage.OpenPager(storage.OSVFS{}, path, storage.PageSize4K, storage.PagerOptions{})
	if err != nil {
		return nil, err
	}
	tree, err := rtree.New(rtree.Options{PageSize: storage.PageSize4K})
	if err != nil {
		return nil, errors.Join(err, pager.Close())
	}
	store, err := rtree.NewTreeStore(tree, pager)
	if err != nil {
		return nil, errors.Join(err, pager.Close())
	}
	srv, err := server.New(in.serverConfig(store, sTree))
	if err != nil {
		return nil, errors.Join(err, pager.Close())
	}
	ls.pager, ls.store, ls.srv = pager, store, srv
	ls.handler = server.NewHandler(srv, server.HandlerConfig{Shard: ls.shard})
	ls.httpd = httptest.NewServer(ls.handler)
	return ls, nil
}

func (ls *ladderServer) close() error {
	ls.httpd.Close()
	return errors.Join(ls.srv.Close(), ls.pager.Close())
}

// owns reports whether the rectangle's centre keys into this server's range.
func (ls *ladderServer) owns(r geom.Rect) bool {
	return ls.shard == nil || ls.shard.Contains(zorder.HilbertKey(r.Center(), server.UnitWorld))
}

// ladder is the state of one ladder run.
type ladder struct {
	in      *serveInputs
	l       *ledger
	tr      *tracer
	sTree   *rtree.Tree
	servers []*ladderServer
	rt      *router.Router

	// Cache and pager statistics of servers[0], accumulated separately over
	// the joins on a long-lived epoch (steady) and the joins that follow a
	// round (churned); the workload decides which of the two describes it.
	steady, churned ioStats
}

type ioStats struct {
	joins                   int
	hits, misses, evictions int64
	reads, readNanos        int64
}

func (s *ioStats) add(c0, c1 buffer.PageCacheStats, p0, p1 storage.PagerStats, joins int) {
	s.joins += joins
	s.hits += c1.Hits - c0.Hits
	s.misses += c1.Misses - c0.Misses
	s.evictions += c1.Evictions - c0.Evictions
	s.reads += p1.Reads - p0.Reads
	s.readNanos += p1.ReadNanos - p0.ReadNanos
}

// rung calls fn `calls` times, records one span per call under the parent
// rung, and returns the median duration.
func (ld *ladder) rung(name, parent string, calls int, fn func() error) (time.Duration, error) {
	d := make([]time.Duration, 0, calls)
	for i := 0; i < calls; i++ {
		start := time.Now()
		err := fn()
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("ladder %s: %w", name, err)
		}
		ld.tr.add("ladder."+name, parent, i, start, end)
		d = append(d, end.Sub(start))
	}
	return percentile(d, 0.5), nil
}

func wirePairsAnswer(pairs [][2]int32) answer {
	var a answer
	for _, p := range pairs {
		a.count++
		a.hash += pairHash(p[0], p[1])
	}
	return a
}

// runLadder builds the in-process stack in dir and measures every rung and
// the write path.
func runLadder(l *ledger, tr *tracer, in *serveInputs, dir string) (err error) {
	ld := &ladder{in: in, l: l, tr: tr}
	if ld.sTree, err = rtree.BulkLoadSTR(rtree.Options{PageSize: storage.PageSize4K}, in.s); err != nil {
		return err
	}
	shards := in.spec.shards
	if len(shards) == 0 {
		shards = []string{""}
	}
	defer func() {
		for _, ls := range ld.servers {
			if ls != nil {
				err = errors.Join(err, ls.close())
			}
		}
	}()
	for i, sh := range shards {
		ls, err := openLadderServer(in, ld.sTree, filepath.Join(dir, fmt.Sprintf("ladder%d.db", i)), sh)
		if err != nil {
			return err
		}
		ld.servers = append(ld.servers, ls)
	}
	if len(in.spec.shards) > 0 {
		cfg := router.Config{}
		for i, ls := range ld.servers {
			cfg.Shards = append(cfg.Shards, router.Shard{Name: fmt.Sprintf("shard%d", i), URL: ls.httpd.URL, Range: *ls.shard})
		}
		if ld.rt, err = router.New(cfg); err != nil {
			return err
		}
	}
	if err := ld.ingest(); err != nil {
		return err
	}
	if err := ld.readRungs(); err != nil {
		return err
	}
	if err := ld.writePath(); err != nil {
		return err
	}
	if err := ld.reopen(); err != nil {
		return err
	}
	return ld.storeCommits(dir)
}

// ingest loads R the way the workload does — through the router when there
// is one, else straight into the server — and commits the first round.
func (ld *ladder) ingest() error {
	ctx := context.Background()
	const batch = 1000
	items := ld.in.r
	start := time.Now()
	for i := 0; i < len(items); i += batch {
		chunk := items[i:min(i+batch, len(items))]
		if ld.rt != nil {
			ops := make([]server.OpWire, len(chunk))
			for k, it := range chunk {
				ops[k] = server.OpWire{XL: it.Rect.XL, YL: it.Rect.YL, XU: it.Rect.XU, YU: it.Rect.YU, Data: it.Data}
			}
			if _, err := ld.rt.Update(ctx, ops); err != nil {
				return err
			}
			continue
		}
		ops := make([]server.Op, len(chunk))
		for k, it := range chunk {
			ops[k] = server.Op{Rect: it.Rect, Data: it.Data}
		}
		if err := ld.servers[0].srv.Update(ops); err != nil {
			return err
		}
	}
	end := time.Now()
	perOp := us(end.Sub(start)) / float64(len(items))
	if ld.rt != nil {
		ld.tr.add("router.Update", "ladder.ingest", len(items), start, end)
		ld.l.set("router.update_us_per_op", perOp, "us")
		return ld.rt.Round(ctx)
	}
	ld.tr.add("server.Update", "ladder.ingest", len(items), start, end)
	_, err := ld.servers[0].srv.Round()
	return err
}

// readRungs replays the full-pair intersection join down the rungs against
// the state ingest left, checking each rung's answer.
func (ld *ladder) readRungs() error {
	ctx := context.Background()
	l, ls := ld.l, ld.servers[0]
	want := ld.in.want(0, opJoin)
	single := ld.rt == nil // a lone server holds all of R, so the oracle applies
	check := func(got answer) error {
		if single && got != want {
			return fmt.Errorf("pair set (%d, %#x), oracle (%d, %#x)", got.count, got.hash, want.count, want.hash)
		}
		return nil
	}
	top := ""

	if ld.rt != nil {
		var walls, merges []time.Duration
		var attempts, requests int
		routerMed, err := ld.rung("router.Join", "", ladderCalls, func() error {
			start := time.Now()
			res, err := ld.rt.Join(ctx, router.JoinRequest{})
			total := time.Since(start)
			if err != nil {
				return err
			}
			if got := wirePairsAnswer(res.Pairs); got != want {
				return fmt.Errorf("merged pair set (%d, %#x), oracle (%d, %#x)", got.count, got.hash, want.count, want.hash)
			}
			var slowest time.Duration
			for _, o := range res.Shards {
				slowest = max(slowest, o.Wall)
				attempts += o.Attempts
				requests++
			}
			walls = append(walls, slowest)
			merges = append(merges, total-slowest)
			return nil
		})
		if err != nil {
			return err
		}
		l.set("router.join_ms_p50", ms(routerMed), "ms")
		l.set("router.shard_wall_max_ms_p50", ms(percentile(walls, 0.5)), "ms")
		l.set("router.merge_ms_p50", ms(percentile(merges, 0.5)), "ms")
		l.set("router.attempts_per_request", float64(attempts)/float64(max(requests, 1)), "count")
		top = "ladder.router.Join"
		l.set("ladder.top_ms_p50", ms(routerMed), "ms")
	}

	c := newClient(ls.httpd.URL)
	defer c.close()
	httpMed, err := ld.rung("http", top, ladderCalls, func() error {
		rep, err := c.post("/join", requestBody(opJoin), time.Time{})
		if err != nil {
			return err
		}
		jr, err := parseJoinReply(rep.body)
		if err != nil {
			return err
		}
		return check(jr.pairs)
	})
	if err != nil {
		return err
	}

	var bodyBytes int
	handlerCall := func() error {
		rec := httptest.NewRecorder()
		ls.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/join", strings.NewReader("{}")))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler status %d", rec.Code)
		}
		bodyBytes = rec.Body.Len()
		return nil
	}
	handlerMed, err := ld.rung("handler", "ladder.http", ladderCalls, handlerCall)
	if err != nil {
		return err
	}
	m0 := mallocs()
	for i := 0; i < ladderCalls/4; i++ {
		if err := handlerCall(); err != nil {
			return err
		}
	}
	handlerAllocs := float64(mallocs()-m0) / float64(ladderCalls/4)

	c0, p0 := ls.srv.Cache().Stats(), ls.pager.Stats()
	var last *server.JoinResponse
	serverCall := func(req server.JoinRequest) func() error {
		return func() error {
			resp, err := ls.srv.Join(ctx, req)
			if err != nil {
				return err
			}
			last = resp
			if req.Predicate != (join.Predicate{}) {
				return nil // only the intersection join has an oracle answer here
			}
			if req.DiscardPairs {
				if single && resp.Count != want.count {
					return fmt.Errorf("count %d, oracle %d", resp.Count, want.count)
				}
				return nil
			}
			return check(pairsAnswer(resp.Pairs))
		}
	}
	serverMed, err := ld.rung("server.Join", "ladder.handler", ladderCalls, serverCall(server.JoinRequest{}))
	if err != nil {
		return err
	}
	joinRes := last.Result
	serverDiscardMed, err := ld.rung("server.Join.discard", "ladder.handler", ladderCalls, serverCall(server.JoinRequest{DiscardPairs: true}))
	if err != nil {
		return err
	}
	ld.steady.add(c0, ls.srv.Cache().Stats(), p0, ls.pager.Stats(), 2*ladderCalls)
	m0 = mallocs()
	for i := 0; i < ladderCalls/4; i++ {
		if err := serverCall(server.JoinRequest{})(); err != nil {
			return err
		}
	}
	serverAllocs := float64(mallocs()-m0) / float64(ladderCalls/4)

	// The other request types once each at the server boundary, for their
	// counted costs and the parallel schedule's balance.
	if err := serverCall(server.JoinRequest{Predicate: join.NearestNeighbors(knnK), DiscardPairs: true})(); err != nil {
		return err
	}
	knnRes := last.Result
	if err := serverCall(server.JoinRequest{Workers: 2, DiscardPairs: true})(); err != nil {
		return err
	}
	parRes := last.Result

	// Below the server: the same join on the writer's tree, which after a
	// round with nothing staged is the published snapshot's content.
	tree := ls.store.Tree()
	cache := buffer.NewPageCacheForBytes(ld.in.spec.cache(), storage.PageSize4K)
	joinCall := func(opts join.Options, first *time.Duration) func() error {
		return func() error {
			opts.Method = join.SJ4
			start := time.Now()
			if first != nil {
				seen := false
				opts.OnPair = func(join.Pair) {
					if !seen {
						seen = true
						*first = time.Since(start)
					}
				}
			}
			res, err := join.Join(tree, ld.sTree, opts)
			if err != nil {
				return err
			}
			if res.Count != joinRes.Count {
				return fmt.Errorf("count %d, server.Join counted %d", res.Count, joinRes.Count)
			}
			return nil
		}
	}
	storeOpts := join.Options{PageReaderR: ls.store, PageCache: cache}
	if _, err := ld.rung("join.store", "ladder.server.Join", ladderCalls, joinCall(storeOpts, nil)); err != nil {
		return err
	}
	storeOpts.DiscardPairs = true
	storeDiscardMed, err := ld.rung("join.store.discard", "ladder.server.Join.discard", ladderCalls, joinCall(storeOpts, nil))
	if err != nil {
		return err
	}
	var firstPair time.Duration
	bareMed, err := ld.rung("join.bare", "ladder.join.store", ladderCalls, joinCall(join.Options{}, &firstPair))
	if err != nil {
		return err
	}
	bareDiscardMed, err := ld.rung("join.bare.discard", "ladder.join.store.discard", ladderCalls, joinCall(join.Options{DiscardPairs: true}, nil))
	if err != nil {
		return err
	}
	m0 = mallocs()
	for i := 0; i < ladderCalls/4; i++ {
		if err := joinCall(join.Options{DiscardPairs: true}, nil)(); err != nil {
			return err
		}
	}
	joinAllocs := float64(mallocs()-m0) / float64(ladderCalls/4)

	scratch := make([]join.Pair, len(joinRes.Pairs))
	sortMed, err := ld.rung("join.SortPairs", "ladder.handler", ladderCalls, func() error {
		copy(scratch, joinRes.Pairs)
		join.SortPairs(scratch)
		return nil
	})
	if err != nil {
		return err
	}

	l.set("server.http_transport_ms_p50", ms(httpMed-handlerMed), "ms")
	l.set("server.encode_ms_p50", ms(handlerMed-serverMed), "ms")
	l.set("server.encode_allocs_per_op", handlerAllocs-serverAllocs, "count")
	l.set("server.response_bytes", float64(bodyBytes), "B")
	l.set("server.join_ms_p50", ms(serverMed), "ms")
	l.set("server.join_overhead_us", us(serverDiscardMed-storeDiscardMed), "us")
	l.set("join.sort_pairs_ms_p50", ms(sortMed), "ms")
	l.set("join.first_pair_us", us(firstPair), "us")
	l.set("join.allocs_per_op", joinAllocs, "count")
	setJoinCosts(l, joinRes, knnRes, parRes, bareDiscardMed, bareMed, storage.PageSize4K)

	// The rungs' self times, for the log: each is its median minus the next
	// rung's, and they sum to the top rung's median.
	l.note("ladder medians ms: http %.3f handler %.3f server.Join %.3f join.store(discard) %.3f join.bare %.3f join.bare(discard) %.3f",
		ms(httpMed), ms(handlerMed), ms(serverMed), ms(storeDiscardMed), ms(bareMed), ms(bareDiscardMed))
	l.note("ladder self ms: transport %.3f encode+sort %.3f server %.3f materialise %.3f traverse %.3f",
		ms(httpMed-handlerMed), ms(handlerMed-serverMed), ms(serverMed-bareMed), ms(bareMed-bareDiscardMed), ms(bareDiscardMed))
	if ld.rt == nil {
		l.set("ladder.top_ms_p50", ms(httpMed), "ms")
	}
	return nil
}

// setJoinCosts reports the join layer's times and exact counts and the cost
// model's view of them.  traverse is the discard-mode median on bare trees,
// full the materialising one.
func setJoinCosts(l *ledger, joinRes, knnRes, parRes *join.Result, traverse, full time.Duration, pageSize int) {
	m := joinRes.Metrics
	l.set("join.traverse_ms_p50", ms(traverse), "ms")
	l.set("join.materialise_ms_p50", ms(full-traverse), "ms")
	l.set("join.comparisons", float64(m.TotalComparisons()), "count")
	l.set("join.disk_reads", float64(m.DiskReads), "count")
	l.set("join.pairs", float64(joinRes.Count), "count")
	l.set("join.knn_dist_computations", float64(knnRes.Metrics.Comparisons), "count")
	accesses := m.BufferHits + m.PathHits + m.DiskReads
	l.set("buffer.lru_hit_rate", float64(m.BufferHits+m.PathHits)/float64(max(accesses, 1)), "ratio")
	l.set("join.par_time_skew", parRes.TimeSkew(costmodelDefault, pageSize), "ratio")
	l.set("join.par_stolen_tasks", float64(parRes.StolenTasks), "count")
	if c := m.TotalComparisons(); c > 0 && traverse > 0 {
		l.set("costmodel.ns_per_comparison", float64(traverse.Nanoseconds())/float64(c), "ns")
		l.set("costmodel.counted_over_wall", costmodelDefault.EstimateSnapshot(m, pageSize).TotalSeconds()/traverse.Seconds(), "ratio")
	}
}

// writePath replays the first churn batches straight into the servers
// (placing each rectangle by its Hilbert key, as the router would), timing
// update and round and reading the pager's and the commit's statistics per
// round, then runs a few discard joins on the fresh epoch.
func (ld *ladder) writePath() error {
	ctx := context.Background()
	l, ls := ld.l, ld.servers[0]
	rounds := min(ladderRounds, len(ld.in.schedule))
	var updates, roundTimes, commits, syncs []float64
	var pagesWritten, syncCount []float64
	var ops int
	before := ld.pagerTotals()
	for k := 0; k < rounds; k++ {
		b := ld.in.schedule[k]
		perServer := make([][]server.Op, len(ld.servers))
		for _, del := range []bool{true, false} {
			items := b.inserts
			if del {
				items = b.deletes
			}
			for _, it := range items {
				for si, s := range ld.servers {
					if s.owns(it.Rect) {
						perServer[si] = append(perServer[si], server.Op{Rect: it.Rect, Data: it.Data, Delete: del})
						break
					}
				}
			}
		}
		for si, s := range ld.servers {
			start := time.Now()
			if err := s.srv.Update(perServer[si]); err != nil {
				return err
			}
			end := time.Now()
			ld.tr.add("server.Update", "ladder.write", k, start, end)
			if n := len(perServer[si]); n > 0 {
				updates = append(updates, us(end.Sub(start))/float64(n))
				ops += n
			}
		}
		for si, s := range ld.servers {
			p0 := s.pager.Stats()
			start := time.Now()
			rs, err := s.srv.Round()
			end := time.Now()
			if err != nil {
				return err
			}
			ld.tr.add("server.Round", "ladder.write", k, start, end)
			roundTimes = append(roundTimes, ms(end.Sub(start)))
			if si == 0 {
				p1 := s.pager.Stats()
				commits = append(commits, float64(p1.CommitNanos-p0.CommitNanos)/1e6)
				if n := p1.Syncs - p0.Syncs; n > 0 {
					syncs = append(syncs, float64(p1.SyncNanos-p0.SyncNanos)/1e6/float64(n))
				}
				syncCount = append(syncCount, float64(p1.Syncs-p0.Syncs))
				pagesWritten = append(pagesWritten, float64(rs.Commit.PagesWritten))
			}
		}
		want := ld.in.want(k+1, opCount)
		c0, p0 := ls.srv.Cache().Stats(), ls.pager.Stats()
		for j := 0; j < ladderJoinsPerRnd; j++ {
			count, err := ld.topCount(ctx)
			if err != nil {
				return err
			}
			if count != want.count {
				return fmt.Errorf("ladder round %d: count %d, oracle %d", k+1, count, want.count)
			}
		}
		ld.churned.add(c0, ls.srv.Cache().Stats(), p0, ls.pager.Stats(), ladderJoinsPerRnd)
	}
	after := ld.pagerTotals()

	l.set("server.update_us_per_op", median(updates), "us")
	l.set("server.round_ms_p50", median(roundTimes), "ms")
	l.set("storage.commit_ms_p50", median(commits), "ms")
	l.set("storage.sync_ms_p50", median(syncs), "ms")
	l.set("storage.syncs_per_round", median(syncCount), "count")
	l.set("rtree.pages_written_per_round", median(pagesWritten), "count")
	l.set("storage.checkpoints", float64(after.Checkpoints), "count")
	if ops > 0 {
		l.set("storage.wal_bytes_per_op", float64(after.WALBytes-before.WALBytes)/float64(ops), "B")
		// A user entry is 20 bytes on a page; every op of a batch writes or
		// removes one.
		l.set("storage.write_amp", float64(after.BytesWritten-before.BytesWritten+after.WALBytes-before.WALBytes)/float64(20*ops), "ratio")
	}
	var fileBytes int64
	for _, s := range ld.servers {
		if fi, err := os.Stat(s.path); err == nil {
			fileBytes += fi.Size()
		}
	}
	l.set("storage.space_amp", float64(fileBytes)/float64(20*len(ld.in.r)), "ratio")

	io := ld.steady
	if ld.in.spec.rate > 0 {
		io = ld.churned // the workload itself flips epochs under its readers
	}
	if io.joins > 0 {
		l.set("storage.reads_per_join", float64(io.reads)/float64(io.joins), "count")
		l.set("buffer.pagecache_evictions", float64(io.evictions), "count")
	}
	if io.hits+io.misses > 0 {
		l.set("buffer.pagecache_hit_rate", float64(io.hits)/float64(io.hits+io.misses), "ratio")
	}
	if io.reads > 0 {
		l.set("storage.read_us_per_page", float64(io.readNanos)/1e3/float64(io.reads), "us")
	}
	return nil
}

// topCount runs one discard join at the top of the stack.
func (ld *ladder) topCount(ctx context.Context) (int, error) {
	if ld.rt != nil {
		res, err := ld.rt.Join(ctx, router.JoinRequest{DiscardPairs: true})
		if err != nil {
			return 0, err
		}
		return res.Count, nil
	}
	resp, err := ld.servers[0].srv.Join(ctx, server.JoinRequest{DiscardPairs: true})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// pagerTotals sums the pagers' counters over the servers.
func (ld *ladder) pagerTotals() storage.PagerStats {
	var t storage.PagerStats
	for _, s := range ld.servers {
		p := s.pager.Stats()
		t.BytesWritten += p.BytesWritten
		t.WALBytes += p.WALBytes
		t.Checkpoints += p.Checkpoints
	}
	return t
}

// reopen closes servers[0] and times what a restart pays inside the
// process: opening the pager (WAL replay, checkpoint) and rebuilding the
// tree from its pages.
func (ld *ladder) reopen() error {
	ls := ld.servers[0]
	ld.servers[0] = nil
	if err := ls.close(); err != nil {
		return err
	}
	start := time.Now()
	pager, err := storage.OpenPager(storage.OSVFS{}, ls.path, storage.PageSize4K, storage.PagerOptions{})
	if err != nil {
		return err
	}
	store, err := rtree.OpenTreeStore(pager, rtree.Options{PageSize: storage.PageSize4K})
	end := time.Now()
	if err != nil {
		return errors.Join(err, pager.Close())
	}
	ld.tr.add("rtree.OpenTreeStore", "ladder.write", 0, start, end)
	ld.l.set("rtree.open_store_ms", ms(end.Sub(start)), "ms")
	sink += store.Tree().Len()
	return pager.Close()
}

// storeCommits times TreeStore.Commit alone: a bulk-loaded copy of R bound
// to its own pager, the churn batches applied through an InsertBuffer, one
// incremental commit per batch.
func (ld *ladder) storeCommits(dir string) (err error) {
	pager, err := storage.OpenPager(storage.OSVFS{}, filepath.Join(dir, "commit.db"), storage.PageSize4K, storage.PagerOptions{})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, pager.Close()) }()
	tree, err := rtree.BulkLoadSTR(rtree.Options{PageSize: storage.PageSize4K}, ld.in.r)
	if err != nil {
		return err
	}
	store, err := rtree.NewTreeStore(tree, pager)
	if err != nil {
		return err
	}
	if _, err := store.Commit(); err != nil {
		return err
	}
	buf := rtree.NewInsertBuffer(tree, 0)
	var commits []float64
	for k := 0; k < min(ladderRounds, len(ld.in.schedule)); k++ {
		for _, it := range ld.in.schedule[k].deletes {
			buf.StageDelete(it.Rect, it.Data)
		}
		for _, it := range ld.in.schedule[k].inserts {
			buf.Stage(it.Rect, it.Data)
		}
		buf.Flush()
		start := time.Now()
		_, err := store.Commit()
		end := time.Now()
		if err != nil {
			return err
		}
		ld.tr.add("rtree.TreeStore.Commit", "ladder.write", k, start, end)
		commits = append(commits, ms(end.Sub(start)))
	}
	ld.l.set("rtree.store_commit_ms_p50", median(commits), "ms")
	return nil
}
