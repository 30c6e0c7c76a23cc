// Package router fans spatial joins out over a set of Hilbert-range shard
// servers and gathers their answers into the pair set a one-process join
// would produce, in a deterministic order.
//
// Each shard (a spatialjoind process started with -shard lo:hi) owns one
// half-open range of the Hilbert key space and indexes the churned
// rectangles whose centre keys fall inside it; the static relation S is
// replicated in full on every shard.  Because the ranges tile the key space
// — New refuses a shard set that does not — every rectangle of R has
// exactly one home, so the union of the per-shard joins is exactly the full
// R ⋈ S with no duplicates: the shard streams, each in its shard's
// deterministic wire order, concatenate in key-range order into the answer.
// kNN streams arrive (R, S)-sorted and are merged in that order.
//
// Routing is coverage-aware but never coverage-trusting: shards publish a
// snapshot summary on GET /stats (item counts, R's MBR, sampled catalog
// statistics) which the router caches with a TTL and feeds to the paper's
// sweep-selectivity cost estimate to order the fan-out — longest-estimated
// shard first, since the critical path of a fan-out is its slowest member.
// Stale or missing statistics degrade the ordering, never the answer: a
// shard is pruned only by the key-range geometry (Plan), and only when the
// deployment bounds rectangle extents so the pruning is provably exact.
package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/server"
	"repro/internal/zorder"
)

// Shard names one shard server and the Hilbert key range it owns.
type Shard struct {
	// Name identifies the shard in errors and outcomes; it defaults to URL.
	Name string
	// URL is the shard's base URL, e.g. "http://127.0.0.1:7461".
	URL string
	// Range is the half-open Hilbert key range the shard owns.
	Range zorder.KeyRange
}

// Config configures a Router.
type Config struct {
	// Shards is the deployment.  The ranges must tile [0, KeySpace) exactly:
	// a gap would lose updates, an overlap would duplicate join pairs.
	Shards []Shard
	// World is the rectangle the Hilbert key grid covers; the zero value
	// means the unit square.  It must match the shards' -world (the daemon
	// default is the same unit square).
	World geom.Rect
	// Client issues the HTTP requests; nil means http.DefaultClient.
	Client *http.Client
	// StatsTTL bounds the age of a cached coverage summary before the
	// router refreshes it.  Zero means 2s.  On a refresh failure the stale
	// summary keeps serving — statistics are advisory, so staleness costs
	// ordering quality, never correctness.
	StatsTTL time.Duration
	// ShardTimeout bounds each attempt of each shard request.  Zero means
	// 30s.
	ShardTimeout time.Duration
	// RetryAttempts is the total number of tries per shard request before
	// the shard counts as failed.  Zero means 3.
	RetryAttempts int
	// RetryBackoff is the first retry delay; it doubles per attempt.  Zero
	// means 50ms.
	RetryBackoff time.Duration
	// MaxRetryAfter caps the honoured Retry-After of a shedding shard (and
	// every other retry delay).  Zero means 2s.
	MaxRetryAfter time.Duration
	// CoverDepth is the Hilbert quadtree depth Plan descends to when
	// pruning shards by key range.  Zero means 8.
	CoverDepth int
	// MaxItemExtent, when positive, promises that no rectangle of R has a
	// side longer than this.  The promise is what makes key-range pruning
	// exact: an item intersecting a query window must have its centre — the
	// point it is routed by — inside the window expanded by the extent.
	// Zero disables pruning and Plan fans out to every shard.
	MaxItemExtent float64

	// Test seams.  nil means time.Now and a context-aware timer sleep.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.World == (geom.Rect{}) {
		c.World = server.UnitWorld
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.StatsTTL == 0 {
		c.StatsTTL = 2 * time.Second
	}
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 30 * time.Second
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.MaxRetryAfter == 0 {
		c.MaxRetryAfter = 2 * time.Second
	}
	if c.CoverDepth == 0 {
		c.CoverDepth = 8
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Router routes updates and fans joins out over a shard deployment.
type Router struct {
	cfg    Config
	shards []Shard // sorted by Range.Lo; the answer's and routing's order

	mu    sync.Mutex
	cache map[string]statsEntry // shard name -> last fetched summary
}

type statsEntry struct {
	wire server.StatsWire
	at   time.Time
}

// New validates the shard set and builds a router over it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	cfg = cfg.withDefaults()
	shards := append([]Shard(nil), cfg.Shards...)
	ranges := make([]zorder.KeyRange, len(shards))
	seen := make(map[string]bool, len(shards))
	for i := range shards {
		if shards[i].URL == "" {
			return nil, fmt.Errorf("router: shard %d has no URL", i)
		}
		shards[i].URL = strings.TrimRight(shards[i].URL, "/")
		if shards[i].Name == "" {
			shards[i].Name = shards[i].URL
		}
		if seen[shards[i].Name] {
			return nil, fmt.Errorf("router: duplicate shard name %q", shards[i].Name)
		}
		seen[shards[i].Name] = true
		ranges[i] = shards[i].Range
	}
	if !zorder.TilesKeySpace(ranges) {
		return nil, fmt.Errorf("router: shard ranges do not tile the key space [0, %d) exactly once", zorder.KeySpace)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Range.Lo < shards[j].Range.Lo })
	return &Router{cfg: cfg, shards: shards, cache: make(map[string]statsEntry, len(shards))}, nil
}

// Shards returns the deployment in answer order (ascending key range).
func (rt *Router) Shards() []Shard { return append([]Shard(nil), rt.shards...) }

// PlannedShard is one shard of a query plan with the advisory statistics
// the fan-out was ordered by.
type PlannedShard struct {
	Shard Shard
	// Coverage is the shard's last known snapshot summary (zero when the
	// shard has never answered /stats).
	Coverage server.Coverage
	// StatsFresh reports whether Coverage is within the TTL; false means
	// the estimate ran on stale (or missing) statistics.
	StatsFresh bool
	// Est is the sweep-selectivity cost estimate of the shard's join (zero
	// without coverage).
	Est costmodel.Estimate
}

// Plan returns the shards a query over the window must visit, ordered by
// descending estimated join cost so the fan-out starts its critical path
// first.  Pruning is purely geometric — a shard is dropped only when no
// rectangle whose centre keys into its range can intersect the window,
// which requires Config.MaxItemExtent — and never statistical: coverage
// summaries order the plan but cannot shrink it, because the next round
// may move any shard's MBR.
func (rt *Router) Plan(ctx context.Context, window geom.Rect) []PlannedShard {
	return rt.PlanPredicate(ctx, window, join.Intersects())
}

// PlanPredicate is Plan with a join predicate.  The predicate changes what
// "can intersect the window" means, so it changes the exactness bound of the
// key-range pruning: within-distance grows the pruning margin by epsilon (an
// R rectangle up to epsilon outside the window still pairs with S inside
// it), and kNN disables pruning entirely — a nearest neighbour can be
// arbitrarily far away, so no geometric argument can exclude a shard.
func (rt *Router) PlanPredicate(ctx context.Context, window geom.Rect, pred join.Predicate) []PlannedShard {
	shards := rt.shards
	margin := rt.cfg.MaxItemExtent
	if pred.Kind == join.PredWithinDist {
		margin += pred.Epsilon
	}
	prune := rt.cfg.MaxItemExtent > 0 && pred.Kind != join.PredKNN
	if prune && !window.Contains(rt.cfg.World) {
		grown := geom.Rect{
			XL: window.XL - margin,
			YL: window.YL - margin,
			XU: window.XU + margin,
			YU: window.YU + margin,
		}
		cover := zorder.HilbertCover(grown, rt.cfg.World, rt.cfg.CoverDepth)
		var kept []Shard
		for _, sh := range shards {
			for _, kr := range cover {
				if sh.Range.Overlaps(kr) {
					kept = append(kept, sh)
					break
				}
			}
		}
		if len(kept) > 0 {
			shards = kept
		}
	}
	plans := make([]PlannedShard, len(shards))
	for i, sh := range shards {
		plans[i] = PlannedShard{Shard: sh}
		if wire, fresh, ok := rt.shardStats(ctx, sh); ok {
			plans[i].Coverage = wire.Coverage
			plans[i].StatsFresh = fresh
			plans[i].Est = estimateJoinCost(wire.Coverage, pred)
		}
	}
	sort.SliceStable(plans, func(i, j int) bool {
		return plans[i].Est.TotalSeconds() > plans[j].Est.TotalSeconds()
	})
	return plans
}

// shardStats returns the shard's coverage summary from the TTL cache,
// refreshing it when expired.  A failed refresh falls back to the stale
// entry: planning must degrade, not fail, when a shard is slow to answer
// /stats.  ok is false only when the shard has never answered.
func (rt *Router) shardStats(ctx context.Context, sh Shard) (wire server.StatsWire, fresh, ok bool) {
	rt.mu.Lock()
	entry, have := rt.cache[sh.Name]
	rt.mu.Unlock()
	if have && rt.cfg.now().Sub(entry.at) <= rt.cfg.StatsTTL {
		return entry.wire, true, true
	}
	var fetched server.StatsWire
	if err := rt.once(ctx, sh, http.MethodGet, "/stats", nil, &fetched); err == nil {
		rt.mu.Lock()
		rt.cache[sh.Name] = statsEntry{wire: fetched, at: rt.cfg.now()}
		rt.mu.Unlock()
		return fetched, true, true
	}
	if have {
		return entry.wire, false, true
	}
	return server.StatsWire{}, false, false
}

// estimateJoinCost runs the paper's cost model over a shard's coverage
// summary: expected I/O is both trees' page populations, expected CPU is
// the plane-sweep selectivity estimate (sort plus x-overlapping pairs from
// the sampled mean rectangle extents), falling back to the all-pairs
// product when a catalog carries no leaf sample.  The predicate adjusts the
// CPU term the same way the executed join changes: within-distance widens
// every R extent by 2·epsilon (the expanded-rectangle filter), kNN charges
// one near-logarithmic S probe plus K heap admissions per R item.
func estimateJoinCost(cov server.Coverage, pred join.Predicate) costmodel.Estimate {
	if cov.PageSize == 0 {
		return costmodel.Estimate{}
	}
	pages := catalogPages(cov.RCatalog) + catalogPages(cov.SCatalog)
	if pages < 2 {
		pages = 2
	}
	er, es := float64(cov.RItems), float64(cov.SItems)
	if pred.Kind == join.PredKNN {
		comps := er*(math.Log2(es+2)+float64(pred.K)) + er + es
		return costmodel.Default().Estimate(int64(pages+0.5), cov.PageSize, int64(comps+0.5))
	}
	var eps float64
	if pred.Kind == join.PredWithinDist {
		eps = pred.Epsilon
	}
	comps := er * es
	wr, _, okR := cov.RCatalog.LeafExtent()
	ws, _, okS := cov.SCatalog.LeafExtent()
	if okR && okS {
		overlap := 1.0
		if ix := cov.RMBR.Width(); ix > 0 && (wr+2*eps+ws) < ix {
			overlap = (wr + 2*eps + ws) / ix
		}
		comps = (er+es)*math.Log2(er+es+2) + er*es*overlap
	}
	return costmodel.Default().Estimate(int64(pages+0.5), cov.PageSize, int64(comps+0.5))
}

// catalogPages is the exact page population recorded by a catalog.
func catalogPages(c costmodel.Catalog) float64 {
	if !c.Valid() {
		return 0
	}
	var pages float64
	for _, l := range c.Levels {
		pages += float64(l.Nodes)
	}
	return pages
}

// shardFor returns the index of the shard owning the key.  The ranges tile
// the key space, so every in-range key has exactly one owner.
func (rt *Router) shardFor(key uint64) int {
	i := sort.Search(len(rt.shards), func(i int) bool { return rt.shards[i].Range.Hi > key })
	if i == len(rt.shards) || !rt.shards[i].Range.Contains(key) {
		return -1
	}
	return i
}
