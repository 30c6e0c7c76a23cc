package join

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildPair constructs two small R*-trees over synthetic street and river
// data; sizes are kept small so the full matrix of algorithms can be verified
// against the brute-force reference in a few hundred milliseconds.
func buildPair(t testing.TB, nR, nS, pageSize int) (*rtree.Tree, *rtree.Tree, []rtree.Item, []rtree.Item) {
	t.Helper()
	itemsR := datagen.Generate(datagen.Config{Kind: datagen.Streets, Count: nR, Seed: 42})
	itemsS := datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: nS, Seed: 43})
	r := rtree.MustNew(rtree.Options{PageSize: pageSize})
	s := rtree.MustNew(rtree.Options{PageSize: pageSize})
	r.InsertItems(itemsR)
	s.InsertItems(itemsS)
	return r.Snapshot(), s.Snapshot(), itemsR, itemsS
}

// bruteForce computes the reference result set.
func bruteForce(itemsR, itemsS []rtree.Item) map[Pair]bool {
	want := make(map[Pair]bool)
	for _, a := range itemsR {
		for _, b := range itemsS {
			if a.Rect.Intersects(b.Rect) {
				want[Pair{R: a.Data, S: b.Data}] = true
			}
		}
	}
	return want
}

func asPairSet(pairs []Pair) map[Pair]bool {
	set := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		set[p] = true
	}
	return set
}

func TestAllMethodsProduceTheSameResult(t *testing.T) {
	r, s, itemsR, itemsS := buildPair(t, 3000, 3000, storage.PageSize1K)
	want := bruteForce(itemsR, itemsS)

	for _, method := range append([]Method{NestedLoop}, Methods...) {
		res, err := Join(r, s, Options{Method: method, BufferBytes: 64 << 10})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		got := asPairSet(res.Pairs)
		if len(got) != len(want) {
			t.Fatalf("%v: %d pairs, want %d", method, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%v: missing pair %v", method, p)
			}
		}
		if res.Count != len(res.Pairs) {
			t.Fatalf("%v: Count=%d but %d pairs materialised", method, res.Count, len(res.Pairs))
		}
		if res.Method != method {
			t.Fatalf("result method = %v, want %v", res.Method, method)
		}
	}
}

func TestJoinNoDuplicatePairs(t *testing.T) {
	r, s, _, _ := buildPair(t, 2000, 2000, storage.PageSize1K)
	for _, method := range Methods {
		res, err := Join(r, s, Options{Method: method, BufferBytes: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[Pair]bool, len(res.Pairs))
		for _, p := range res.Pairs {
			if seen[p] {
				t.Fatalf("%v: duplicate pair %v", method, p)
			}
			seen[p] = true
		}
	}
}

func TestJoinErrors(t *testing.T) {
	r, _, _, _ := buildPair(t, 100, 100, storage.PageSize1K)
	if _, err := Join(nil, r, Options{}); !errors.Is(err, ErrNilTree) {
		t.Fatalf("expected ErrNilTree, got %v", err)
	}
	if _, err := Join(r, nil, Options{}); !errors.Is(err, ErrNilTree) {
		t.Fatalf("expected ErrNilTree, got %v", err)
	}
	other := rtree.MustNew(rtree.Options{PageSize: storage.PageSize2K})
	if _, err := Join(r, other, Options{}); !errors.Is(err, ErrPageSizeMismatch) {
		t.Fatalf("expected ErrPageSizeMismatch, got %v", err)
	}
	if _, err := Join(r, r, Options{Method: Method(99)}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

// TestJoinRefusesTreesMutatedSinceReady: a join only reads, so every method
// refuses, with ErrNotReady, a tree that an insert, a delete or a buffered
// insert changed since it was last made ready, on either side.  A snapshot
// taken while the tree was ready, and the ready partner, still join as
// before: the same pairs, in the same order, with the same counters.  A
// Snapshot of the mutated tree joins again.
func TestJoinRefusesTreesMutatedSinceReady(t *testing.T) {
	itemsR := datagen.Generate(datagen.Config{Kind: datagen.Streets, Count: 800, Seed: 42})
	itemsS := datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: 600, Seed: 43})
	methods := append([]Method{NestedLoop}, Methods...)
	preds := []Predicate{{}, WithinDistance(0.01), NearestNeighbors(2)}
	mutations := map[string]func(r *rtree.Tree){
		"insert": func(r *rtree.Tree) { r.Insert(geom.Rect{XL: 0.5, YL: 0.5, XU: 0.51, YU: 0.51}, 1<<20) },
		"delete": func(r *rtree.Tree) {
			if !r.Delete(itemsR[7].Rect, itemsR[7].Data) {
				t.Fatal("delete of a stored item failed")
			}
		},
		"buffered insert": func(r *rtree.Tree) {
			buf := rtree.NewInsertBuffer(r, 4)
			buf.Stage(geom.Rect{XL: 0.2, YL: 0.2, XU: 0.21, YU: 0.21}, 1<<20)
			buf.Flush()
		},
	}
	for name, mutate := range mutations {
		r, err := rtree.Build(rtree.Options{PageSize: storage.PageSize1K}, itemsR, false)
		if err != nil {
			t.Fatal(err)
		}
		s, err := rtree.Build(rtree.Options{PageSize: storage.PageSize1K}, itemsS, false)
		if err != nil {
			t.Fatal(err)
		}
		snap := r.Snapshot()
		type run struct {
			pairs   []Pair
			metrics metrics.Snapshot
		}
		before := map[[2]int]run{}
		for i, m := range methods {
			for j, pred := range preds {
				res, err := Join(r, s, Options{Method: m, Predicate: pred})
				if err != nil {
					t.Fatalf("%s: %v %+v on the ready tree: %v", name, m, pred, err)
				}
				before[[2]int{i, j}] = run{res.Pairs, res.Metrics}
			}
		}
		mutate(r)
		if r.Ready() {
			t.Fatalf("%s: the tree is still ready", name)
		}
		for i, m := range methods {
			for j, pred := range preds {
				opts := Options{Method: m, Predicate: pred}
				if _, err := Join(r, s, opts); !errors.Is(err, ErrNotReady) {
					t.Fatalf("%s: %v %+v with R mutated: %v, want ErrNotReady", name, m, pred, err)
				}
				if _, err := Join(s, r, opts); !errors.Is(err, ErrNotReady) {
					t.Fatalf("%s: %v %+v with S mutated: %v, want ErrNotReady", name, m, pred, err)
				}
				res, err := Join(snap, s, opts)
				if err != nil {
					t.Fatalf("%s: %v %+v on the snapshot: %v", name, m, pred, err)
				}
				want := before[[2]int{i, j}]
				if res.Metrics != want.metrics || len(res.Pairs) != len(want.pairs) {
					t.Fatalf("%s: %v %+v on the snapshot: %d pairs %+v, before %d pairs %+v",
						name, m, pred, len(res.Pairs), res.Metrics, len(want.pairs), want.metrics)
				}
				for k := range want.pairs {
					if res.Pairs[k] != want.pairs[k] {
						t.Fatalf("%s: %v %+v on the snapshot: pair %d is %v, before %v", name, m, pred, k, res.Pairs[k], want.pairs[k])
					}
				}
			}
		}
		if _, err := Join(r.Snapshot(), s, Options{Method: SJ4}); err != nil {
			t.Fatalf("%s: the mutated tree's snapshot: %v", name, err)
		}
	}
}

func TestJoinEmptyTrees(t *testing.T) {
	empty := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	full := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	full.Insert(geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}, 1)
	full = full.Snapshot()
	for _, method := range append([]Method{NestedLoop}, Methods...) {
		for _, pair := range [][2]*rtree.Tree{{empty, full}, {full, empty}, {empty, empty}} {
			res, err := Join(pair[0], pair[1], Options{Method: method})
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			if res.Count != 0 {
				t.Fatalf("%v: expected empty result, got %d", method, res.Count)
			}
		}
	}
}

func TestJoinDisjointTrees(t *testing.T) {
	r := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	s := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*0.4, rng.Float64()*0.4
		r.Insert(geom.Rect{XL: x, YL: y, XU: x + 0.01, YU: y + 0.01}, int32(i))
		x, y = 0.6+rng.Float64()*0.4, 0.6+rng.Float64()*0.4
		s.Insert(geom.Rect{XL: x, YL: y, XU: x + 0.01, YU: y + 0.01}, int32(i))
	}
	r, s = r.Snapshot(), s.Snapshot()
	for _, method := range Methods {
		res, err := Join(r, s, Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 0 {
			t.Fatalf("%v: expected no pairs for disjoint data, got %d", method, res.Count)
		}
	}
}

func TestSelfJoinFindsAllIdentityPairs(t *testing.T) {
	// Test (D) of the paper joins a relation with itself; every object must
	// at least pair with itself.
	items := datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: 1500, Seed: 7})
	r := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	s := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	r.InsertItems(items)
	s.InsertItems(items)
	res, err := Join(r.Snapshot(), s.Snapshot(), Options{Method: SJ4, BufferBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	got := asPairSet(res.Pairs)
	for _, it := range items {
		if !got[Pair{R: it.Data, S: it.Data}] {
			t.Fatalf("self join missing identity pair for %d", it.Data)
		}
	}
}

func TestDiscardPairsAndOnPair(t *testing.T) {
	r, s, _, _ := buildPair(t, 1000, 1000, storage.PageSize1K)
	streamed := 0
	res, err := Join(r, s, Options{
		Method:       SJ4,
		DiscardPairs: true,
		OnPair:       func(Pair) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("DiscardPairs left %d pairs materialised", len(res.Pairs))
	}
	if res.Count == 0 || streamed != res.Count {
		t.Fatalf("streamed %d pairs, count %d", streamed, res.Count)
	}
	if res.Metrics.PairsReported != int64(res.Count) {
		t.Fatalf("metrics reported %d pairs, count %d", res.Metrics.PairsReported, res.Count)
	}
}

func TestExternalCollectorReceivesCounts(t *testing.T) {
	r, s, _, _ := buildPair(t, 500, 500, storage.PageSize1K)
	c := metrics.NewCollector()
	c.AddComparisons(123) // pre-existing counts must not leak into the result
	res, err := Join(r, s, Options{Method: SJ1, Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Comparisons <= 0 {
		t.Fatal("expected comparisons in result metrics")
	}
	if c.Comparisons() != res.Metrics.Comparisons+123 {
		t.Fatalf("collector holds %d comparisons, result says %d (+123 pre-existing)",
			c.Comparisons(), res.Metrics.Comparisons)
	}
}

func TestSJ2UsesFewerComparisonsThanSJ1(t *testing.T) {
	r, s, _, _ := buildPair(t, 6000, 6000, storage.PageSize2K)
	res1, err := Join(r, s, Options{Method: SJ1, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Join(r, s, Options{Method: SJ2, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.Comparisons >= res1.Metrics.Comparisons {
		t.Fatalf("SJ2 comparisons (%d) should be below SJ1 (%d)",
			res2.Metrics.Comparisons, res1.Metrics.Comparisons)
	}
	// Paper Table 3: the improvement factor is roughly 4.6-8.9; on synthetic
	// data we only require a clear improvement (> 2x).
	if factor := float64(res1.Metrics.Comparisons) / float64(res2.Metrics.Comparisons); factor < 2 {
		t.Errorf("restriction improvement factor %.2f is implausibly small", factor)
	}
}

func TestSweepJoinUsesFewerJoinComparisonsThanSJ2(t *testing.T) {
	// Paper Table 4 (version II): with restriction, the sorted intersection
	// test further reduces the join comparisons.
	r, s, _, _ := buildPair(t, 6000, 6000, storage.PageSize4K)
	res2, err := Join(r, s, Options{Method: SJ2, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := Join(r, s, Options{Method: SJ4, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Metrics.Comparisons >= res2.Metrics.Comparisons {
		t.Fatalf("SJ4 join comparisons (%d) should be below SJ2 (%d)",
			res4.Metrics.Comparisons, res2.Metrics.Comparisons)
	}
	if res4.Metrics.SortComparisons == 0 {
		t.Fatal("SJ4 must charge sorting comparisons")
	}
	if res4.Metrics.NodeSorts == 0 {
		t.Fatal("SJ4 must record node sorts")
	}
	if res2.Metrics.SortComparisons != 0 {
		t.Fatal("SJ2 must not charge sorting comparisons")
	}
}

func TestLargerBufferNeverIncreasesDiskAccesses(t *testing.T) {
	r, s, _, _ := buildPair(t, 4000, 4000, storage.PageSize1K)
	for _, method := range []Method{SJ1, SJ4} {
		prev := int64(-1)
		for _, bufBytes := range []int{0, 8 << 10, 32 << 10, 128 << 10, 512 << 10} {
			res, err := Join(r, s, Options{Method: method, BufferBytes: bufBytes, DiscardPairs: true})
			if err != nil {
				t.Fatal(err)
			}
			accesses := res.Metrics.DiskAccesses()
			if prev >= 0 && accesses > prev {
				t.Fatalf("%v: disk accesses increased from %d to %d when the buffer grew to %d bytes",
					method, prev, accesses, bufBytes)
			}
			prev = accesses
		}
	}
}

func TestBufferedJoinApproachesOptimum(t *testing.T) {
	// With a buffer comparable to the tree sizes, the number of disk accesses
	// of SJ4 must approach the optimum |R| + |S| (every required page read
	// once) -- the headline I/O result of the paper (Table 6).
	r, s, _, _ := buildPair(t, 4000, 4000, storage.PageSize1K)
	optimum := int64(r.Stats().TotalPages() + s.Stats().TotalPages())
	res, err := Join(r, s, Options{Method: SJ4, BufferBytes: 1 << 20, UsePathBuffer: true, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.DiskAccesses(); got > optimum {
		t.Fatalf("SJ4 with a large buffer performed %d accesses, optimum is %d", got, optimum)
	}
}

func TestSJ4NeedsFewerAccessesThanSJ1SmallBuffer(t *testing.T) {
	r, s, _, _ := buildPair(t, 6000, 6000, storage.PageSize1K)
	res1, err := Join(r, s, Options{Method: SJ1, BufferBytes: 32 << 10, UsePathBuffer: true, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := Join(r, s, Options{Method: SJ4, BufferBytes: 32 << 10, UsePathBuffer: true, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Metrics.DiskAccesses() > res1.Metrics.DiskAccesses() {
		t.Fatalf("SJ4 accesses (%d) should not exceed SJ1 accesses (%d) for a small buffer",
			res4.Metrics.DiskAccesses(), res1.Metrics.DiskAccesses())
	}
}

func TestPathBufferReducesAccesses(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	without, err := Join(r, s, Options{Method: SJ1, BufferBytes: 0, UsePathBuffer: false, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Join(r, s, Options{Method: SJ1, BufferBytes: 0, UsePathBuffer: true, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Metrics.DiskAccesses() > without.Metrics.DiskAccesses() {
		t.Fatalf("path buffer increased accesses: %d vs %d",
			with.Metrics.DiskAccesses(), without.Metrics.DiskAccesses())
	}
	if with.Metrics.PathHits == 0 {
		t.Fatal("expected path-buffer hits")
	}
}

func TestMethodAndPolicyStrings(t *testing.T) {
	for _, m := range append([]Method{NestedLoop, Method(77)}, Methods...) {
		if m.String() == "" {
			t.Errorf("empty string for method %d", int(m))
		}
	}
	for _, p := range []HeightPolicy{PolicyWindowPerPair, PolicyBatchedWindows, PolicySweepOrder, HeightPolicy(9)} {
		if p.String() == "" {
			t.Errorf("empty string for policy %d", int(p))
		}
	}
}

// TestPooledJoinBuffersResetPerJoin runs joins of different settings one
// after the other on one pooled tracker, with its LRU and read frame, and
// holds each to the same join on a fresh one: the count and every counter.  The buffer size and
// the path buffer must be the join's own, a page reader or page cache left
// by an earlier join must not be read, and a latched read error must neither
// fail a later join nor stop its reads.
func TestPooledJoinBuffersResetPerJoin(t *testing.T) {
	r, s, _, _ := buildPair(t, 2000, 2000, storage.PageSize1K)
	drain := func() {
		for len(trackerPool) > 0 {
			<-trackerPool
		}
	}
	first := &faultReader{}
	failing := &faultReader{fail: true}
	last := &faultReader{}
	runs := []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"readers+cache", Options{Method: SJ4, BufferBytes: 64 << 10, UsePathBuffer: true,
			PageReaderR: first, PageReaderS: first, PageCache: buffer.NewPageCacheForBytes(16<<10, storage.PageSize1K)}, false},
		{"no buffer, no readers", Options{Method: SJ4}, false},
		{"failing reader", Options{Method: SJ3, BufferBytes: 16 << 10, PageReaderR: failing}, true},
		{"small buffer", Options{Method: SJ4, BufferBytes: 16 << 10, UsePathBuffer: true}, false},
		{"reader after a fault", Options{Method: SJ4, BufferBytes: 8 << 10, PageReaderS: last}, false},
	}
	fresh := make([]*Result, len(runs))
	for i, rn := range runs {
		drain()
		res, err := Join(r, s, rn.opts)
		if (err != nil) != rn.wantErr {
			t.Fatalf("%s on a fresh tracker: error %v", rn.name, err)
		}
		fresh[i] = res
	}
	firstReads, lastReads := first.reads, last.reads

	drain()
	for i, rn := range runs {
		res, err := Join(r, s, rn.opts)
		if len(trackerPool) != 1 {
			t.Fatalf("%s: %d trackers pooled, want the one reused", rn.name, len(trackerPool))
		}
		if rn.wantErr {
			if !errors.Is(err, errDeadSector) {
				t.Fatalf("%s: want the read fault, got %v", rn.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s on a reused tracker: %v", rn.name, err)
		}
		if res.Count != fresh[i].Count || res.Metrics != fresh[i].Metrics {
			t.Errorf("%s: reused tracker %d pairs, metrics %+v; fresh %d pairs, metrics %+v",
				rn.name, res.Count, res.Metrics, fresh[i].Count, fresh[i].Metrics)
		}
	}
	if first.reads != 2*firstReads {
		t.Errorf("the first join's reader was read %d times, %d by its own two joins", first.reads, 2*firstReads)
	}
	if last.reads != 2*lastReads || lastReads == 0 {
		t.Errorf("the last join's reader was read %d times, want %d (twice its fresh %d)", last.reads, 2*lastReads, lastReads)
	}
}
