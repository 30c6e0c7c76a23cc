package server

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
)

// rectDist2 is the oracle's squared rectangle distance (clamp formulation,
// independent of the counted production code in geom).
func rectDist2(a, b geom.Rect) float64 {
	dx := math.Max(0, math.Max(a.XL-b.XU, b.XL-a.XU))
	dy := math.Max(0, math.Max(a.YL-b.YU, b.YL-a.YU))
	return dx*dx + dy*dy
}

func bruteDistancePairs(rItems, sItems []rtree.Item, eps float64) map[join.Pair]bool {
	out := make(map[join.Pair]bool)
	for _, r := range rItems {
		for _, s := range sItems {
			if rectDist2(r.Rect, s.Rect) <= eps*eps {
				out[join.Pair{R: r.Data, S: s.Data}] = true
			}
		}
	}
	return out
}

func bruteKNNPairs(rItems, sItems []rtree.Item, k int) map[join.Pair]bool {
	out := make(map[join.Pair]bool)
	type cand struct {
		d2  float64
		sID int32
	}
	for _, r := range rItems {
		cands := make([]cand, 0, len(sItems))
		for _, s := range sItems {
			cands = append(cands, cand{d2: rectDist2(r.Rect, s.Rect), sID: s.Data})
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
			out[join.Pair{R: r.Data, S: c.sID}] = true
		}
	}
	return out
}

// TestServerPredicateJoinsUnderChurn drives rounds of inserts and deletes
// through the server and, after every flip, checks that within-distance and
// kNN joins over the published snapshot match
// the brute-force oracles over the model item set.
func TestServerPredicateJoinsUnderChurn(t *testing.T) {
	f := newFixture(t, Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(71))
	model := append([]rtree.Item(nil), f.rItems...)
	nextID := int32(500_000)

	const eps, k = 0.015, 3
	check := func(round int) {
		t.Helper()
		wantDist := bruteDistancePairs(model, f.sItems, eps)
		wantKNN := bruteKNNPairs(model, f.sItems, k)
		resp, err := f.srv.Join(ctx, JoinRequest{Predicate: join.WithinDistance(eps)})
		if err != nil {
			t.Fatalf("round %d within: %v", round, err)
		}
		samePairs(t, pairSet(resp.Pairs), wantDist, "within-distance under churn")
		resp, err = f.srv.Join(ctx, JoinRequest{Predicate: join.NearestNeighbors(k)})
		if err != nil {
			t.Fatalf("round %d knn: %v", round, err)
		}
		samePairs(t, pairSet(resp.Pairs), wantKNN, "kNN under churn")
	}

	check(0)
	for round := 1; round <= 3; round++ {
		// Delete a random prefix slice and insert a fresh batch.
		var ops []Op
		del := rng.Intn(40) + 10
		for i := 0; i < del && len(model) > 0; i++ {
			j := rng.Intn(len(model))
			ops = append(ops, Op{Rect: model[j].Rect, Data: model[j].Data, Delete: true})
			model = append(model[:j], model[j+1:]...)
		}
		ins := genItems(rng, rng.Intn(60)+20, nextID, 0.02)
		nextID += int32(len(ins))
		for _, it := range ins {
			ops = append(ops, Op{Rect: it.Rect, Data: it.Data})
			model = append(model, it)
		}
		if err := f.srv.Update(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := f.srv.Round(); err != nil {
			t.Fatal(err)
		}
		check(round)
	}
}

// TestServerRejectsBadPredicate pins that validation happens before
// admission, with the join package's typed error.
func TestServerRejectsBadPredicate(t *testing.T) {
	f := newFixture(t, Config{})
	_, err := f.srv.Join(context.Background(), JoinRequest{
		Predicate: join.Predicate{Kind: join.PredWithinDist, Epsilon: -1},
	})
	if err == nil {
		t.Fatal("expected a validation error")
	}
}
