package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/zorder"
)

// JoinRequest is one fan-out join; the zero value is the intersection join
// with pairs.  Every shard runs the same request.
type JoinRequest struct {
	// Predicate is the join condition in join.ParsePredicate's textual form
	// ("intersects", "within:EPS", "knn:K"); empty means intersection.  The
	// fan-out is exact for every predicate because R is sharded disjointly
	// while S is replicated in full: each shard evaluates its R slice against
	// all of S, so within-distance unions cleanly and every R item's kNN heap
	// is already globally correct on its home shard.
	Predicate string
	// DiscardPairs suppresses materialising pairs; the result then carries
	// only the per-shard counts.
	DiscardPairs bool
}

// ShardOutcome is one shard's contribution to a gathered join.
type ShardOutcome struct {
	Shard string
	// Epoch is the shard snapshot the join ran against.
	Epoch uint64
	// Count is the shard's pair count.
	Count int
	// Attempts is the number of HTTP attempts the request took (1 = no
	// retries).
	Attempts int
	// Wall is the shard request's wall-clock time including retries, up to
	// the end of its body.
	Wall time.Duration
}

// JoinResult is a gathered fan-out join.
type JoinResult struct {
	// Count is the total pair count over all shards.
	Count int
	// Pairs is the exact pair set in a deterministic order: the shards'
	// streams one after the other in ascending key range, each in its
	// shard's wire order — traversal order for intersects and within, (R, S)
	// order for kNN.  It is the order of the gateway's
	// reply.  Nil when the request discarded pairs.
	Pairs [][2]int32
	// Shards holds the per-shard outcomes in key-range order.
	Shards []ShardOutcome
}

// ErrBadRequest marks a request the router rejected before contacting any
// shard: a join with a malformed predicate, or an update batch holding a
// malformed rectangle (server.ErrMalformedOp).
var ErrBadRequest = errors.New("router: bad join request")

// Join fans the join out to every shard and collects the shard streams into
// one deterministic pair set.  R is homed disjointly, so the streams
// concatenate in key-range order into the exact union; kNN streams are also
// checked per R item and across shards (see knnStream).  Every shard must
// answer, in the canonical reply form and with as many pairs as its count
// says: each holds a disjoint slice of R, so a missing or short stream
// would silently truncate the result.  If any shard fails after retries,
// Join returns a *PartialError naming the failed and succeeded shards — and
// no pairs.  The gateway's /join reads the same streams through the same
// checks and forwards their bytes instead.
func (rt *Router) Join(ctx context.Context, req JoinRequest) (*JoinResult, error) {
	fo, err := rt.fanOut(ctx, req, false)
	if err != nil {
		return nil, err
	}
	defer fo.close()
	if err := fo.each(nil); err != nil {
		return nil, err
	}
	res := &JoinResult{}
	res.Shards, res.Count = fo.outcomes()
	if !req.DiscardPairs {
		res.Pairs = make([][2]int32, 0, res.Count)
		for _, st := range fo.streams {
			res.Pairs = append(res.Pairs, st.pairs...)
		}
	}
	return res, nil
}

// knnStream checks one shard's kNN stream as it is scanned: the pairs come
// (R, S)-sorted and no R carries more than k neighbours.  It keeps the
// stream's R identifiers, ascending, for the check across shards
// (sharedR).  The checks are what the concatenation rests on: each R
// item's K-best heap is complete only on its home shard, so an R answered
// by two shards means the deployment double-homed an item, and the reply
// would carry two partial heaps.
type knnStream struct {
	k    int
	n    int
	last [2]int32
	run  int
	rIDs []int32
}

func (c *knnStream) add(r, s int32) error {
	switch p := [2]int32{r, s}; {
	case c.n > 0 && pairLess(p, c.last):
		return fmt.Errorf("kNN: pairs not sorted by (R, S) at index %d", c.n)
	case c.n == 0 || r != c.last[0]:
		c.rIDs = append(c.rIDs, r)
		c.run = 0
	}
	c.run++
	if c.run > c.k {
		return fmt.Errorf("kNN: R item %d carries %d neighbours, more than k=%d", r, c.run, c.k)
	}
	c.last = [2]int32{r, s}
	c.n++
	return nil
}

// sharedR merge-walks two ascending R identifier lists and returns the
// first identifier both hold.
func sharedR(a, b []int32) (int32, bool) {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i], true
		}
	}
	return 0, false
}

func pairLess(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// Update routes each op to the shard owning its rectangle's centre key and
// stages every shard's part at once, each part encoded once
// (server.AppendOps) and kept in the order of ops.  It returns the number
// of ops the shards staged.  If some shard fails after its retries, the
// others' parts stay staged — they become visible at those shards' next
// rounds, the same at-least-staged contract a retried direct update has —
// and Update returns their count with a *PartialError naming the failed
// shards.
func (rt *Router) Update(ctx context.Context, ops []server.OpWire) (int, error) {
	// The shards run the same check, but a batch split across them would be
	// staged on the shards that accept their parts.
	for i, op := range ops {
		if err := server.CheckOp(i, op.Rect()); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
	}
	parts := make([][]server.OpWire, len(rt.shards))
	for i, op := range ops {
		key := zorder.HilbertKey(op.Rect().Center(), server.UnitWorld)
		shard := rt.shardFor(key)
		if shard < 0 {
			return 0, fmt.Errorf("router: op %d: centre key %d outside the key space", i, key)
		}
		parts[shard] = append(parts[shard], op)
	}
	var wg sync.WaitGroup
	staged := make([]int, len(rt.shards))
	errs := make([]error, len(rt.shards))
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		body := server.AppendOps(nil, part)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp struct {
				Staged int `json:"staged"`
			}
			if _, errs[i] = rt.do(ctx, rt.shards[i], http.MethodPost, "/update", body, decodeJSON(&resp)); errs[i] == nil {
				staged[i] = resp.Staged
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range staged {
		total += n
	}
	return total, rt.partial(errs)
}

// Round commits staged mutations on every shard.  Like Join it is
// all-or-error: a shard that cannot flip leaves the deployment on mixed
// epochs, which the caller must know about.
func (rt *Router) Round(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(rt.shards))
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			_, errs[i] = rt.do(ctx, sh, http.MethodPost, "/round", nil, nil)
		}(i, sh)
	}
	wg.Wait()
	return rt.partial(errs)
}

// Stats fetches a fresh stats snapshot from every shard, keyed by shard
// name: the gateway's GET /stats.  Join never calls it.  Shards that fail to
// answer are reported in a *PartialError alongside the snapshots that
// succeeded.
func (rt *Router) Stats(ctx context.Context) (map[string]server.StatsWire, error) {
	out := make(map[string]server.StatsWire, len(rt.shards))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(rt.shards))
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			var wire server.StatsWire
			if _, err := rt.do(ctx, sh, http.MethodGet, "/stats", nil, decodeJSON(&wire)); err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			out[sh.Name] = wire
			mu.Unlock()
		}(i, sh)
	}
	wg.Wait()
	return out, rt.partial(errs)
}

// partial gathers the per-shard errors of a fan-out, indexed like
// rt.shards, into a *PartialError, or nil if every shard succeeded.
func (rt *Router) partial(errs []error) error {
	var perr PartialError
	for i, err := range errs {
		if err != nil {
			perr.Failures = append(perr.Failures, &ShardError{Shard: rt.shards[i].Name, Err: err})
		} else {
			perr.Succeeded = append(perr.Succeeded, rt.shards[i].Name)
		}
	}
	if len(perr.Failures) > 0 {
		return &perr
	}
	return nil
}
