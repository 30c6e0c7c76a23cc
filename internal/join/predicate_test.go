package join

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// rectDist2 is the oracle's squared rectangle distance, computed with the
// clamp formulation (independent of the counted production code).
func rectDist2(a, b geom.Rect) float64 {
	dx := math.Max(0, math.Max(a.XL-b.XU, b.XL-a.XU))
	dy := math.Max(0, math.Max(a.YL-b.YU, b.YL-a.YU))
	return dx*dx + dy*dy
}

// bruteForceDistance computes the within-distance reference result set.
func bruteForceDistance(itemsR, itemsS []rtree.Item, eps float64) map[Pair]bool {
	want := make(map[Pair]bool)
	for _, a := range itemsR {
		for _, b := range itemsS {
			if rectDist2(a.Rect, b.Rect) <= eps*eps {
				want[Pair{R: a.Data, S: b.Data}] = true
			}
		}
	}
	return want
}

// bruteForceKNN computes the kNN reference result set: for every R item the
// k smallest (distance, S id) candidates.
func bruteForceKNN(itemsR, itemsS []rtree.Item, k int) map[Pair]bool {
	want := make(map[Pair]bool)
	type cand struct {
		d2  float64
		sID int32
	}
	cands := make([]cand, 0, len(itemsS))
	for _, a := range itemsR {
		cands = cands[:0]
		for _, b := range itemsS {
			cands = append(cands, cand{d2: rectDist2(a.Rect, b.Rect), sID: b.Data})
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
			want[Pair{R: a.Data, S: c.sID}] = true
		}
	}
	return want
}

func comparePairSets(t *testing.T, label string, got []Pair, want map[Pair]bool) {
	t.Helper()
	gotSet := asPairSet(got)
	if len(gotSet) != len(got) {
		t.Fatalf("%s: %d pairs materialised but only %d distinct", label, len(got), len(gotSet))
	}
	for p := range want {
		if !gotSet[p] {
			t.Fatalf("%s: missing pair %v", label, p)
		}
	}
	for p := range gotSet {
		if !want[p] {
			t.Fatalf("%s: spurious pair %v", label, p)
		}
	}
}

// epsSuite spans thresholds from "barely more than intersection" to "most
// pairs qualify" on the unit-world synthetic data.
var epsSuite = []float64{0, 0.002, 0.01, 0.05}

func TestWithinDistanceMatchesBruteForceAllMethods(t *testing.T) {
	r, s, itemsR, itemsS := buildPair(t, 1500, 1500, storage.PageSize1K)
	for _, eps := range epsSuite {
		want := bruteForceDistance(itemsR, itemsS, eps)
		for _, method := range append([]Method{NestedLoop}, Methods...) {
			res, err := Join(r, s, Options{
				Method:      method,
				BufferBytes: 64 << 10,
				Predicate:   WithinDistance(eps),
			})
			if err != nil {
				t.Fatalf("%v eps=%v: %v", method, eps, err)
			}
			comparePairSets(t, method.String(), res.Pairs, want)
			if res.Predicate.Kind != PredWithinDist {
				t.Fatalf("result predicate = %v", res.Predicate)
			}
		}
	}
}

// TestWithinDistanceZeroEqualsIntersection pins the eps=0 degenerate case:
// rectangles at distance zero are exactly the touching-or-overlapping ones,
// so the result equals the intersection join's.
func TestWithinDistanceZeroEqualsIntersection(t *testing.T) {
	r, s, itemsR, itemsS := buildPair(t, 1200, 1200, storage.PageSize1K)
	want := bruteForce(itemsR, itemsS)
	res, err := Join(r, s, Options{Method: SJ4, BufferBytes: 64 << 10, Predicate: WithinDistance(0)})
	if err != nil {
		t.Fatal(err)
	}
	comparePairSets(t, "within(0)", res.Pairs, want)
}

func TestWithinDistanceHeightDifference(t *testing.T) {
	// A large R against a tiny S forces leaf-vs-directory pairs through all
	// three height policies, in both orientations.
	for _, sizes := range [][2]int{{2400, 60}, {60, 2400}} {
		r, s, itemsR, itemsS := buildPair(t, sizes[0], sizes[1], storage.PageSize1K)
		want := bruteForceDistance(itemsR, itemsS, 0.01)
		for _, policy := range []HeightPolicy{PolicyWindowPerPair, PolicyBatchedWindows, PolicySweepOrder} {
			for _, method := range Methods {
				res, err := Join(r, s, Options{
					Method:       method,
					BufferBytes:  64 << 10,
					HeightPolicy: policy,
					Predicate:    WithinDistance(0.01),
				})
				if err != nil {
					t.Fatalf("%v/%v: %v", method, policy, err)
				}
				comparePairSets(t, method.String()+"/"+policy.String(), res.Pairs, want)
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	r, s, itemsR, itemsS := buildPair(t, 1200, 1200, storage.PageSize1K)
	for _, k := range []int{1, 3, 10} {
		want := bruteForceKNN(itemsR, itemsS, k)
		for _, method := range append([]Method{NestedLoop}, Methods...) {
			res, err := Join(r, s, Options{
				Method:      method,
				BufferBytes: 64 << 10,
				Predicate:   NearestNeighbors(k),
			})
			if err != nil {
				t.Fatalf("%v k=%d: %v", method, k, err)
			}
			if res.Count != len(want) {
				t.Fatalf("%v k=%d: %d pairs, want %d", method, k, res.Count, len(want))
			}
			comparePairSets(t, method.String(), res.Pairs, want)
		}
	}
}

// TestKNNMoreNeighboursThanItems pins the k > |S| degenerate case: every R
// item reports all of S.
func TestKNNMoreNeighboursThanItems(t *testing.T) {
	r, s, itemsR, itemsS := buildPair(t, 300, 40, storage.PageSize1K)
	want := bruteForceKNN(itemsR, itemsS, 100)
	if len(want) != len(itemsR)*len(itemsS) {
		t.Fatalf("oracle: %d pairs, want full cross product %d", len(want), len(itemsR)*len(itemsS))
	}
	res, err := Join(r, s, Options{Method: SJ4, BufferBytes: 64 << 10, Predicate: NearestNeighbors(100)})
	if err != nil {
		t.Fatal(err)
	}
	comparePairSets(t, "knn(100)", res.Pairs, want)
}

// TestKNNHeightDifference joins trees of different heights under kNN.
func TestKNNHeightDifference(t *testing.T) {
	for _, sizes := range [][2]int{{2400, 60}, {60, 2400}} {
		r, s, itemsR, itemsS := buildPair(t, sizes[0], sizes[1], storage.PageSize1K)
		want := bruteForceKNN(itemsR, itemsS, 3)
		res, err := Join(r, s, Options{Method: SJ4, BufferBytes: 64 << 10, Predicate: NearestNeighbors(3)})
		if err != nil {
			t.Fatal(err)
		}
		comparePairSets(t, "knn heights", res.Pairs, want)
	}
}

func TestPredicateValidation(t *testing.T) {
	r, s, _, _ := buildPair(t, 50, 50, storage.PageSize1K)
	bad := []Predicate{
		{Kind: PredWithinDist, Epsilon: -1},
		{Kind: PredWithinDist, Epsilon: math.NaN()},
		{Kind: PredWithinDist, Epsilon: math.Inf(1)},
		{Kind: PredKNN, K: 0},
		{Kind: PredKNN, K: -3},
		{Kind: PredicateKind(99)},
	}
	for _, p := range bad {
		if _, err := Join(r, s, Options{Method: SJ4, Predicate: p}); err == nil {
			t.Fatalf("predicate %v: expected validation error", p)
		}
	}
	if Intersects().Validate() != nil || WithinDistance(1).Validate() != nil || NearestNeighbors(2).Validate() != nil {
		t.Fatal("valid predicates must validate")
	}
	if (Predicate{}) != Intersects() {
		t.Fatal("zero predicate must be the intersection predicate")
	}
}

// TestIntersectionCostUnchangedByPredicatePlumbing pins the bit-identical
// guarantee: a join with the zero predicate must report exactly the same
// cost counters as one with an explicit intersection predicate, and the
// within-distance machinery with a tiny epsilon must not disturb them.
func TestIntersectionCostUnchangedByPredicatePlumbing(t *testing.T) {
	r, s, _, _ := buildPair(t, 1000, 1000, storage.PageSize1K)
	base, err := Join(r, s, Options{Method: SJ4, BufferBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Join(r, s, Options{Method: SJ4, BufferBytes: 32 << 10, Predicate: Intersects()})
	if err != nil {
		t.Fatal(err)
	}
	if base.Metrics != explicit.Metrics {
		t.Fatalf("explicit intersection predicate changed the cost accounting:\n%+v\nvs\n%+v", base.Metrics, explicit.Metrics)
	}
	if sortedPairHash(base.Pairs) != sortedPairHash(explicit.Pairs) {
		t.Fatal("explicit intersection predicate changed the result")
	}
}

// TestParallelPredicateInvariants runs the full schedule matrix over the new
// predicates: every tree algorithm SJ1-SJ5 under both partition strategies
// must produce exactly the brute-force within-distance and kNN result sets.
// MinTasksPerWorker forces split rounds, so the epsilon-expanded task
// splitting and the R-side-only kNN splitting are exercised too.
func TestParallelPredicateInvariants(t *testing.T) {
	r, s, itemsR, itemsS := buildPair(t, 1500, 1500, storage.PageSize1K)
	preds := []struct {
		pred Predicate
		want map[Pair]bool
	}{
		{WithinDistance(0.01), bruteForceDistance(itemsR, itemsS, 0.01)},
		{NearestNeighbors(3), bruteForceKNN(itemsR, itemsS, 3)},
	}
	for _, pc := range preds {
		for _, method := range Methods {
			for _, strategy := range PartitionStrategies {
				res, err := ParallelJoin(r, s, ParallelOptions{
					Options: Options{
						Method:      method,
						BufferBytes: 64 << 10,
						Predicate:   pc.pred,
					},
					Workers:           4,
					Strategy:          strategy,
					MinTasksPerWorker: 4,
				})
				label := pc.pred.String() + "/" + method.String() + "/" + strategy.String()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				comparePairSets(t, label, res.Pairs, pc.want)
				if res.Predicate != pc.pred {
					t.Fatalf("%s: result predicate = %v", label, res.Predicate)
				}
			}
		}
	}
}

// TestParallelPredicateHeights runs the parallel predicate matrix over trees
// of different heights, so the leaf-vs-directory orientation logic runs
// inside worker tasks under every strategy.
func TestParallelPredicateHeights(t *testing.T) {
	for _, sizes := range [][2]int{{2400, 60}, {60, 2400}} {
		r, s, itemsR, itemsS := buildPair(t, sizes[0], sizes[1], storage.PageSize1K)
		wantDist := bruteForceDistance(itemsR, itemsS, 0.01)
		wantKNN := bruteForceKNN(itemsR, itemsS, 3)
		for _, strategy := range PartitionStrategies {
			res, err := ParallelJoin(r, s, ParallelOptions{
				Options:  Options{Method: SJ4, BufferBytes: 64 << 10, Predicate: WithinDistance(0.01)},
				Workers:  3,
				Strategy: strategy,
			})
			if err != nil {
				t.Fatal(err)
			}
			comparePairSets(t, "dist/"+strategy.String(), res.Pairs, wantDist)
			res, err = ParallelJoin(r, s, ParallelOptions{
				Options:  Options{Method: SJ4, BufferBytes: 64 << 10, Predicate: NearestNeighbors(3)},
				Workers:  3,
				Strategy: strategy,
			})
			if err != nil {
				t.Fatal(err)
			}
			comparePairSets(t, "knn/"+strategy.String(), res.Pairs, wantKNN)
		}
	}
}

// TestParallelPredicateValidation pins that ParallelJoin rejects invalid
// predicates before planning.
func TestParallelPredicateValidation(t *testing.T) {
	r, s, _, _ := buildPair(t, 200, 200, storage.PageSize1K)
	_, err := ParallelJoin(r, s, ParallelOptions{
		Options: Options{Method: SJ4, Predicate: Predicate{Kind: PredWithinDist, Epsilon: -1}},
	})
	if err == nil {
		t.Fatal("expected validation error")
	}
}

// TestParallelIntersectionPlanUnchanged pins that the predicate threading
// left the intersection plan bit-identical: plan metrics, worker metrics and
// result hash all match between an implicit and an explicit intersection
// predicate.
func TestParallelIntersectionPlanUnchanged(t *testing.T) {
	r, s, _, _ := buildPair(t, 1500, 1500, storage.PageSize1K)
	run := func(p Predicate) *Result {
		res, err := ParallelJoin(r, s, ParallelOptions{
			Options:           Options{Method: SJ3, BufferBytes: 64 << 10, Predicate: p},
			Workers:           4,
			Strategy:          PartitionSpatial,
			MinTasksPerWorker: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, explicit := run(Predicate{}), run(Intersects())
	if base.PlanMetrics != explicit.PlanMetrics {
		t.Fatalf("plan metrics changed:\n%+v\nvs\n%+v", base.PlanMetrics, explicit.PlanMetrics)
	}
	if base.Metrics != explicit.Metrics {
		t.Fatalf("metrics changed:\n%+v\nvs\n%+v", base.Metrics, explicit.Metrics)
	}
	if sortedPairHash(sortedCopy(base.Pairs)) != sortedPairHash(sortedCopy(explicit.Pairs)) {
		t.Fatal("result changed")
	}
}

func sortedCopy(pairs []Pair) []Pair {
	out := append([]Pair(nil), pairs...)
	SortPairs(out)
	return out
}
