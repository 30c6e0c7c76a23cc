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
// deterministic wire order, concatenate in key-range order into the answer,
// for every predicate (kNN streams arrive (R, S)-sorted, and are checked
// for that and for R items answered twice, not merged).
//
// The gateway (NewHandler) does not decode and re-encode that answer: it
// checks each shard body with server.PairScanner as it arrives and passes
// the pair bytes through, the first shard's while the others still join.
//
// Routing is key-range only.  An op goes to the shard whose range holds its
// centre key, and a join goes to every shard, in key-range order.  Join never
// reads a shard's GET /stats: Stats is a plain fan-out for operators.
package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

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
	// Client issues the HTTP requests; nil means http.DefaultClient.
	Client *http.Client
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

	// Test seams.  nil means time.Now and a context-aware timer sleep.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = http.DefaultClient
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
	return &Router{cfg: cfg, shards: shards}, nil
}

// Shards returns the deployment in answer order (ascending key range).
func (rt *Router) Shards() []Shard { return append([]Shard(nil), rt.shards...) }

// shardFor returns the index of the shard owning the key.  The ranges tile
// the key space, so every in-range key has exactly one owner.
func (rt *Router) shardFor(key uint64) int {
	i := sort.Search(len(rt.shards), func(i int) bool { return rt.shards[i].Range.Hi > key })
	if i == len(rt.shards) || !rt.shards[i].Range.Contains(key) {
		return -1
	}
	return i
}
