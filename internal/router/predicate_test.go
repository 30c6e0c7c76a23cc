package router

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/zorder"
)

// rectDist2 is the oracle's squared rectangle distance (clamp formulation).
func rectDist2(a, b geom.Rect) float64 {
	dx := math.Max(0, math.Max(a.XL-b.XU, b.XL-a.XU))
	dy := math.Max(0, math.Max(a.YL-b.YU, b.YL-a.YU))
	return dx*dx + dy*dy
}

func bruteDistanceWire(rOps []server.OpWire, sItems []rtree.Item, eps float64) [][2]int32 {
	var out [][2]int32
	for _, op := range rOps {
		rr := op.Rect()
		for _, s := range sItems {
			if rectDist2(rr, s.Rect) <= eps*eps {
				out = append(out, [2]int32{op.Data, s.Data})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i], out[j]) })
	return out
}

func bruteKNNWire(rOps []server.OpWire, sItems []rtree.Item, k int) [][2]int32 {
	var out [][2]int32
	type cand struct {
		d2  float64
		sID int32
	}
	for _, op := range rOps {
		rr := op.Rect()
		cands := make([]cand, 0, len(sItems))
		for _, s := range sItems {
			cands = append(cands, cand{d2: rectDist2(rr, s.Rect), sID: s.Data})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d2 != cands[j].d2 {
				return cands[i].d2 < cands[j].d2
			}
			return cands[i].sID < cands[j].sID
		})
		n := k
		if n > len(cands) {
			n = len(cands)
		}
		for _, c := range cands[:n] {
			out = append(out, [2]int32{op.Data, c.sID})
		}
	}
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i], out[j]) })
	return out
}

// TestRouterPredicateParity is the sharded parity contract for the new
// predicates: for 1, 2, 3 and 4 shards, the within-distance and kNN
// fan-outs' pair sets equal their brute-force oracles' (sorted on the test
// side: the wire order is deterministic, not sorted).  A kNN answer is the
// shards' (R, S)-sorted streams concatenated in key-range order, each
// shard's run as long as its count.  The kNN case exercises the
// R-disjointness bound on real deployments: R items are homed by centre
// key, S is replicated, so each home shard's per-item heap is already
// globally correct.
func TestRouterPredicateParity(t *testing.T) {
	rOps := genROps(300, 9)
	sItems := genSItems(200, 5)
	const eps, k = 0.03, 3
	wantDist := bruteDistanceWire(rOps, sItems, eps)
	wantKNN := bruteKNNWire(rOps, sItems, k)
	if len(wantDist) == 0 || len(wantKNN) != len(rOps)*k {
		t.Fatalf("oracle sanity: %d distance pairs, %d knn pairs", len(wantDist), len(wantKNN))
	}
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rt, _ := newDeployment(t, n, nil)
			loadDeployment(t, rt, rOps)
			res, err := rt.Join(ctx, JoinRequest{Predicate: fmt.Sprintf("within:%g", eps)})
			if err != nil {
				t.Fatalf("within: %v", err)
			}
			assertPairsEqual(t, "within", sortedPairs(res.Pairs), wantDist)
			res, err = rt.Join(ctx, JoinRequest{Predicate: fmt.Sprintf("knn:%d", k)})
			if err != nil {
				t.Fatalf("knn: %v", err)
			}
			assertPairsEqual(t, "knn", sortedPairs(res.Pairs), wantKNN)
			rest := res.Pairs
			for _, o := range res.Shards {
				run := rest[:o.Count]
				assertPairsEqual(t, fmt.Sprintf("knn, %s's run", o.Shard), run, sortedPairs(run))
				rest = rest[o.Count:]
			}
		})
	}
}

// TestRouterRejectsBadPredicate pins that a malformed predicate fails at the
// router, before any shard is contacted.
func TestRouterRejectsBadPredicate(t *testing.T) {
	rt, _ := newDeployment(t, 2, nil)
	if _, err := rt.Join(context.Background(), JoinRequest{Predicate: "within:-1"}); err == nil {
		t.Fatal("expected a parse error")
	}
	if _, err := rt.Join(context.Background(), JoinRequest{Predicate: "nearest:3"}); err == nil {
		t.Fatal("expected a parse error for an unknown predicate name")
	}
}

// stubDeployment serves each handler as one shard of a deployment whose
// ranges tile the key space uniformly.
func stubDeployment(t *testing.T, cfg Config, handlers ...http.Handler) *Router {
	t.Helper()
	ranges := zorder.UniformKeyRanges(len(handlers))
	for i, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		cfg.Shards = append(cfg.Shards, Shard{Name: string(rune('a' + i)), URL: ts.URL, Range: ranges[i]})
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// streamShard answers every /join with pairs, as a shard writes them.
func streamShard(pairs [][2]int32) http.Handler {
	body := shardBody(pairs)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSONBytes(w, http.StatusOK, body)
	})
}

// TestVerifyKNNStreams pins the checks a kNN fan-out makes while it scans
// the shard streams, messages included: they name the item and the shards
// an operator has to look at.  Each stream must be (R, S)-sorted with at
// most K neighbours per R — a shard breaking that fails, permanently — and
// no R may be answered by two shards.  Router.Join and the gateway read the
// streams through the same checks.
func TestVerifyKNNStreams(t *testing.T) {
	const dupMsg = "router: kNN: R item 1 answered by both %s and %s — R is not disjoint across shards"
	const overMsg = "shard %s: POST /join after 1 attempt(s): protocol violation: kNN: R item 1 carries 3 neighbours, more than k=2"
	for _, tc := range []struct {
		name    string
		streams [][][2]int32
		want    string
	}{
		{"disjoint", [][][2]int32{{{1, 10}, {1, 11}}, {{2, 10}}, nil}, ""},
		{"interleaved", [][][2]int32{{{1, 10}, {4, 10}}, {{2, 10}, {5, 11}}, {{-3, 1}, {3, 10}, {3, 11}}}, ""},
		{"double-homed", [][][2]int32{{{1, 10}}, {{1, 11}}, nil}, fmt.Sprintf(dupMsg, "a", "b")},
		// The duplicate's two homes are not neighbours in shard order, and
		// other items sit before it in both streams.
		{"double-homed, shards apart", [][][2]int32{{{0, 10}, {1, 10}}, {{2, 10}}, {{-5, 10}, {1, 11}}}, fmt.Sprintf(dupMsg, "a", "c")},
		{"over k", [][][2]int32{{{1, 10}, {1, 11}, {1, 12}}, nil, nil}, fmt.Sprintf(overMsg, "a")},
		{"over k, last stream", [][][2]int32{{{0, 10}}, nil, {{1, 10}, {1, 11}, {1, 12}}}, fmt.Sprintf(overMsg, "c")},
		// Both at once on one item: the stream that breaks its own order
		// fails first.
		{"over k and double-homed", [][][2]int32{{{1, 10}, {1, 11}, {1, 12}}, {{1, 13}}, nil}, fmt.Sprintf(overMsg, "a")},
		// The checks read runs of sorted streams; an unsorted one could hide
		// a double-homed item, so it fails.
		{"unsorted", [][][2]int32{{{1, 10}}, {{2, 10}, {1, 10}}, nil}, "shard b: POST /join after 1 attempt(s): protocol violation: kNN: pairs not sorted by (R, S) at index 1"},
	} {
		handlers := make([]http.Handler, len(tc.streams))
		for i, s := range tc.streams {
			handlers[i] = streamShard(s)
		}
		rt := stubDeployment(t, Config{RetryAttempts: 3}, handlers...)
		res, err := rt.Join(context.Background(), JoinRequest{Predicate: "knn:2"})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want == "" && len(res.Pairs) != res.Count:
			t.Errorf("%s: %d pairs, count %d", tc.name, len(res.Pairs), res.Count)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		case tc.want != "" && res != nil:
			t.Errorf("%s: a rejected fan-out returned %d pairs", tc.name, len(res.Pairs))
		}
	}
}
