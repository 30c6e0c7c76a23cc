package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/server"
	"repro/internal/zorder"
)

// JoinRequest is one fan-out join; the zero value is the intersection join
// with pairs.  Every shard runs the same request.
type JoinRequest struct {
	// Workers > 1 runs a parallel join on each shard.
	Workers int
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

// ShardOutcome is one shard's contribution to a merged join.
type ShardOutcome struct {
	Shard string
	// Epoch is the shard snapshot the join ran against.
	Epoch uint64
	// Count is the shard's pair count.
	Count int
	// Attempts is the number of HTTP attempts the request took (1 = no
	// retries).
	Attempts int
	// Wall is the shard request's wall-clock time including retries.
	Wall time.Duration
}

// JoinResult is a merged fan-out join.
type JoinResult struct {
	// Count is the total pair count over all shards.
	Count int
	// Pairs is the exact pair set in a deterministic order: the shards'
	// streams one after the other in ascending key range, each in its
	// shard's wire order.  A kNN answer is merged into ascending (R, S)
	// order instead.  Nil when the request discarded pairs.
	Pairs [][2]int32
	// Shards holds the per-shard outcomes in key-range order.
	Shards []ShardOutcome
}

// ErrBadRequest marks a request the router rejected before contacting any
// shard: a join with a malformed predicate, or an update batch holding a
// malformed rectangle (server.ErrMalformedOp).
var ErrBadRequest = errors.New("router: bad join request")

// Join fans the join out to every shard and joins the shard streams into
// one deterministic pair set.  R is homed disjointly, so the streams
// concatenate in key-range order into the exact union; only kNN streams,
// which arrive (R, S)-sorted, are checked per R item and merged.  Every
// shard must answer, with as many pairs as its count says: each holds a
// disjoint slice of R, so a missing or short stream would silently
// truncate the result.  If any shard fails after retries, Join returns a
// *PartialError naming the failed and succeeded shards — and no pairs.
func (rt *Router) Join(ctx context.Context, req JoinRequest) (*JoinResult, error) {
	// Parse the predicate up front so a malformed request fails here, with a
	// clear error, instead of as N identical shard rejections.
	pred, err := join.ParsePredicate(req.Predicate)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}

	type shardJoin struct {
		resp     server.JoinResponseWire
		attempts int
		wall     time.Duration
		err      error
	}
	results := make([]shardJoin, len(rt.shards))
	var wg sync.WaitGroup
	wire := server.JoinRequestWire{Workers: req.Workers, Predicate: req.Predicate, DiscardPairs: req.DiscardPairs}
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(sj *shardJoin, sh Shard) {
			defer wg.Done()
			start := rt.cfg.now()
			sj.attempts, sj.err = rt.do(ctx, sh, http.MethodPost, "/join", wire, &sj.resp)
			sj.wall = rt.cfg.now().Sub(start)
			if sj.err == nil && !req.DiscardPairs && sj.resp.Count != len(sj.resp.Pairs) {
				sj.err = fmt.Errorf("protocol violation: count %d but %d pairs", sj.resp.Count, len(sj.resp.Pairs))
			}
		}(&results[i], sh)
	}
	wg.Wait()

	var perr PartialError
	outcomes := make([]ShardOutcome, 0, len(rt.shards))
	streams := make([][][2]int32, 0, len(rt.shards))
	total := 0
	for i, sh := range rt.shards {
		sj := results[i]
		if sj.err != nil {
			perr.Failures = append(perr.Failures, &ShardError{Shard: sh.Name, Err: sj.err})
			continue
		}
		perr.Succeeded = append(perr.Succeeded, sh.Name)
		outcomes = append(outcomes, ShardOutcome{
			Shard:    sh.Name,
			Epoch:    sj.resp.Epoch,
			Count:    sj.resp.Count,
			Attempts: sj.attempts,
			Wall:     sj.wall,
		})
		streams = append(streams, sj.resp.Pairs)
		total += sj.resp.Count
	}
	if len(perr.Failures) > 0 {
		return nil, &perr
	}
	res := &JoinResult{Count: total, Shards: outcomes}
	switch {
	case req.DiscardPairs:
	case pred.Kind == join.PredKNN:
		// The kNN merge is a plain union, and its correctness bound is
		// R-disjointness: each R item's K-best heap is complete only on its
		// home shard, so an R identifier answered by two shards means the
		// deployment double-homed an item and the union would mix two
		// partial heaps.  Fail loudly instead of merging wrong answers.
		if err := verifyKNNStreams(streams, rt.shards, pred.K); err != nil {
			return nil, err
		}
		res.Pairs = mergeSorted(streams, total)
	default:
		res.Pairs = make([][2]int32, 0, total)
		for _, s := range streams {
			res.Pairs = append(res.Pairs, s...)
		}
	}
	return res, nil
}

// verifyKNNStreams checks the invariants the kNN union rests on: each
// shard's stream is (R, S)-sorted, no R identifier appears in more than one
// shard's stream, and no R identifier carries more than K neighbours.  In
// sorted streams one pass in merge order sees the last two: an R's
// neighbours are one run of one stream, and a second shard answering the
// same R shows up as an equal R at the head of another stream.  The streams
// line up with shards.
func verifyKNNStreams(streams [][][2]int32, shards []Shard, k int) error {
	for i, s := range streams {
		for j := 1; j < len(s); j++ {
			if pairLess(s[j], s[j-1]) {
				return fmt.Errorf("router: kNN merge: %s's pairs are not sorted by (R, S) at index %d", shards[i].Name, j)
			}
		}
	}
	pos := make([]int, len(streams))
	for {
		// The stream whose head has the lowest R; ties to the lowest shard.
		best := -1
		for i, s := range streams {
			if pos[i] < len(s) && (best < 0 || s[pos[i]][0] < streams[best][pos[best]][0]) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		s := streams[best]
		r := s[pos[best]][0]
		for run := 1; pos[best] < len(s) && s[pos[best]][0] == r; run++ {
			if run > k {
				return fmt.Errorf("router: kNN merge: R item %d carries %d neighbours, more than k=%d", r, run, k)
			}
			pos[best]++
		}
		for i := best + 1; i < len(streams); i++ {
			if pos[i] < len(streams[i]) && streams[i][pos[i]][0] == r {
				return fmt.Errorf("router: kNN merge: R item %d answered by both %s and %s — R is not disjoint across shards",
					r, shards[best].Name, shards[i].Name)
			}
		}
	}
}

func pairLess(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// mergeSorted k-way merges the sorted kNN shard streams.  Ties break to the
// lowest stream index — the shard with the lowest key range — so the merge
// is deterministic even if two shards ever emitted an equal pair.
func mergeSorted(streams [][][2]int32, total int) [][2]int32 {
	out := make([][2]int32, 0, total)
	idx := make([]int, len(streams))
	for {
		best := -1
		for k, s := range streams {
			if idx[k] >= len(s) {
				continue
			}
			if best < 0 || pairLess(s[idx[k]], streams[best][idx[best]]) {
				best = k
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
}

// Update routes each op to the shard owning its rectangle's centre key and
// stages the per-shard batches in shard order.  It returns the number of
// ops staged; on a shard failure it returns the count staged so far and a
// *ShardError (staged ops on earlier shards stay staged — they become
// visible at those shards' next rounds whether or not this call succeeded,
// which is the same at-least-staged contract a retried direct update has).
func (rt *Router) Update(ctx context.Context, ops []server.OpWire) (int, error) {
	// The shards run the same check, but a batch split across them would be
	// staged on the shards before the one that rejects its part.
	for i, op := range ops {
		if err := server.CheckOp(i, op.Rect()); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
	}
	batches := make([][]server.OpWire, len(rt.shards))
	for i, op := range ops {
		key := zorder.HilbertKey(op.Rect().Center(), server.UnitWorld)
		shard := rt.shardFor(key)
		if shard < 0 {
			return 0, fmt.Errorf("router: op %d: centre key %d outside the key space", i, key)
		}
		batches[shard] = append(batches[shard], op)
	}
	staged := 0
	for i, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		var resp struct {
			Staged int `json:"staged"`
		}
		if _, err := rt.do(ctx, rt.shards[i], http.MethodPost, "/update", batch, &resp); err != nil {
			return staged, &ShardError{Shard: rt.shards[i].Name, Err: err}
		}
		staged += resp.Staged
	}
	return staged, nil
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
			if _, err := rt.do(ctx, sh, http.MethodGet, "/stats", nil, &wire); err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			out[sh.Name] = wire
			mu.Unlock()
		}(i, sh)
	}
	wg.Wait()
	var perr PartialError
	for i, err := range errs {
		if err != nil {
			perr.Failures = append(perr.Failures, &ShardError{Shard: rt.shards[i].Name, Err: err})
		} else {
			perr.Succeeded = append(perr.Succeeded, rt.shards[i].Name)
		}
	}
	if len(perr.Failures) > 0 {
		return out, &perr
	}
	return out, nil
}
