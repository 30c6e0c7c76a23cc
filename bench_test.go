package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/sweep"
)

// The benchmarks mirror the paper's evaluation: one benchmark per table and
// figure (driving the experiment harness) plus micro-benchmarks for the
// individual join algorithms and index operations.
//
// BenchScale is deliberately small so `go test -bench=.` finishes in minutes;
// cmd/experiments -scale 1.0 reproduces the paper's full cardinalities.
const benchScale = 0.02

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite

	benchTreesOnce sync.Once
	benchTreeR     *rtree.Tree
	benchTreeS     *rtree.Tree
	benchItemsR    []Item
	benchItemsS    []Item
)

// suiteForBench returns a shared experiment suite; building the trees is done
// once outside the timed sections.
func suiteForBench() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Config{
			Scale:         benchScale,
			PageSizes:     []int{storage.PageSize1K, storage.PageSize2K},
			BufferSizesKB: []int{0, 32, 128},
			UsePathBuffer: true,
		})
		// Warm the dataset and tree caches so the benchmarks measure the
		// experiment itself, not tree construction.
		benchSuite.Table1()
	})
	return benchSuite
}

func treesForBench() (*rtree.Tree, *rtree.Tree) {
	benchTreesOnce.Do(func() {
		benchItemsR = GenerateDataset(DatasetConfig{Kind: Streets, Count: 8000, Seed: 1})
		benchItemsS = GenerateDataset(DatasetConfig{Kind: Rivers, Count: 8000, Seed: 2})
		var err error
		benchTreeR, err = BuildRTree(RTreeOptions{PageSize: PageSize1K}, benchItemsR, false)
		if err != nil {
			panic(err)
		}
		benchTreeS, err = BuildRTree(RTreeOptions{PageSize: PageSize1K}, benchItemsS, false)
		if err != nil {
			panic(err)
		}
	})
	return benchTreeR, benchTreeS
}

// --- One benchmark per paper table / figure -------------------------------

// BenchmarkTable1 regenerates Table 1 (R*-tree properties per page size).
func BenchmarkTable1(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := s.Table1(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (disk accesses and comparisons of SJ1).
func BenchmarkTable2(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := s.Table2(); len(res.Cells) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (estimated execution time of SJ1).
func BenchmarkFigure2(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pts := s.Figure2(); len(pts) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (search-space restriction).
func BenchmarkTable3(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := s.Table3(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (effect of spatial sorting).
func BenchmarkTable4(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := s.Table4(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable5 regenerates Table 5 (read schedules SJ3/SJ4/SJ5).
func BenchmarkTable5(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := s.Table5(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable6 regenerates Table 6 (I/O performance of SJ4 vs SJ1).
func BenchmarkTable6(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := s.Table6(); len(res.Cells) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable7 regenerates Table 7 (trees of different heights).
func BenchmarkTable7(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := s.Table7(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8 (estimated execution time of SJ4).
func BenchmarkFigure8(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pts := s.Figure8(); len(pts) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (improvement factors of SJ4).
func BenchmarkFigure9(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pts := s.Figure9(); len(pts) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable8 regenerates Table 8 (characteristics of tests A-E).
func BenchmarkTable8(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := s.Table8(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10 (improvement factors for tests A-E).
func BenchmarkFigure10(b *testing.B) {
	s := suiteForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pts := s.Figure10(); len(pts) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- Micro-benchmarks for the individual algorithms ------------------------

// benchmarkJoinMethod measures one join algorithm on the shared tree pair.
func benchmarkJoinMethod(b *testing.B, method JoinMethod, bufferKB int) {
	r, s := treesForBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := TreeJoin(r, s, JoinOptions{
			Method:        method,
			BufferBytes:   bufferKB << 10,
			UsePathBuffer: true,
			DiscardPairs:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Count == 0 {
			b.Fatal("empty join result")
		}
	}
}

func BenchmarkSpatialJoin1(b *testing.B) { benchmarkJoinMethod(b, SpatialJoin1, 128) }
func BenchmarkSpatialJoin2(b *testing.B) { benchmarkJoinMethod(b, SpatialJoin2, 128) }
func BenchmarkSpatialJoin3(b *testing.B) { benchmarkJoinMethod(b, SpatialJoin3, 128) }
func BenchmarkSpatialJoin4(b *testing.B) { benchmarkJoinMethod(b, SpatialJoin4, 128) }
func BenchmarkSpatialJoin5(b *testing.B) { benchmarkJoinMethod(b, SpatialJoin5, 128) }

// BenchmarkSpatialJoin4NoBuffer isolates the effect of the LRU buffer
// (ablation: buffer size 0 vs 128 KByte).
func BenchmarkSpatialJoin4NoBuffer(b *testing.B) { benchmarkJoinMethod(b, SpatialJoin4, 0) }

// BenchmarkRStarInsert measures dynamic insertion into an R*-tree.
func BenchmarkRStarInsert(b *testing.B) {
	items := GenerateDataset(DatasetConfig{Kind: Streets, Count: 20000, Seed: 9})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := NewRTree(RTreeOptions{PageSize: PageSize2K})
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			t.Insert(it.Rect, it.Data)
		}
	}
}

// BenchmarkBuildRTreeDynamic measures full R*-tree construction by dynamic
// insertion (the paper's build method).  The plain variant pays the full
// ChooseSubtree overlap scan per insert; the hilbert-buffered variant stages
// the same items in a Hilbert insertion buffer, which applies them in curve
// order and appends runs directly to the previous insert's leaf (the PR-2(b)
// CPU bottleneck, closed; BENCH_5.json records the speedup and hit rate).
func BenchmarkBuildRTreeDynamic(b *testing.B) {
	items := GenerateDataset(DatasetConfig{Kind: Streets, Count: 20000, Seed: 9})
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, err := BuildRTree(RTreeOptions{PageSize: PageSize2K}, items, false)
			if err != nil {
				b.Fatal(err)
			}
			if t.Len() != len(items) {
				b.Fatal("lost entries")
			}
		}
	})
	b.Run("hilbert-buffered", func(b *testing.B) {
		b.ReportAllocs()
		hitRate := 0.0
		var last *RTree
		for i := 0; i < b.N; i++ {
			t, err := NewRTree(RTreeOptions{PageSize: PageSize2K})
			if err != nil {
				b.Fatal(err)
			}
			buf := NewRTreeInsertBuffer(t, len(items))
			for _, it := range items {
				buf.Stage(it.Rect, it.Data)
			}
			buf.Flush()
			if t.Len() != len(items) {
				b.Fatal("lost entries")
			}
			hitRate = float64(buf.HintHits()) / float64(buf.Applied())
			last = t
		}
		b.StopTimer()
		b.ReportMetric(hitRate, "hint-hit-rate")
		if err := last.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkBuildRTreeSTR measures STR bulk loading (ablation: dynamic
// insertion vs packing) of BenchmarkBuildRTreeDynamic's 20 000 streets at
// 2 KiB pages, and of 120 000 streets at 4 KiB pages, the batch workload's
// tree size.  A load includes building every node's xl-order.
func BenchmarkBuildRTreeSTR(b *testing.B) {
	for _, c := range []struct{ count, pageSize int }{{20000, PageSize2K}, {120000, PageSize4K}} {
		items := GenerateDataset(DatasetConfig{Kind: Streets, Count: c.count, Seed: 9})
		b.Run(fmt.Sprintf("items=%d", c.count), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := BuildRTree(RTreeOptions{PageSize: c.pageSize}, items, true)
				if err != nil {
					b.Fatal(err)
				}
				if t.Len() != len(items) {
					b.Fatal("lost entries")
				}
			}
		})
	}
}

// BenchmarkWindowQuery measures the single-scan query the paper's
// introduction motivates.
func BenchmarkWindowQuery(b *testing.B) {
	r, _ := treesForBench()
	window := NewRect(0.4, 0.4, 0.45, 0.45)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r.Search(window, func(TreeEntry) bool { n++; return true })
	}
}

// BenchmarkHeightPolicies compares the three policies of section 4.4.
func BenchmarkHeightPolicies(b *testing.B) {
	big := GenerateDataset(DatasetConfig{Kind: Streets, Count: 12000, Seed: 4})
	small := GenerateDataset(DatasetConfig{Kind: Rivers, Count: 800, Seed: 5})
	r, err := BuildRTree(RTreeOptions{PageSize: PageSize1K}, big, false)
	if err != nil {
		b.Fatal(err)
	}
	s, err := BuildRTree(RTreeOptions{PageSize: PageSize1K}, small, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []struct {
		name string
		p    HeightPolicy
	}{
		{"WindowPerPair", WindowPerPair},
		{"BatchedWindows", BatchedWindows},
		{"SweepOrder", SweepOrder},
	} {
		b.Run(policy.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TreeJoin(r, s, JoinOptions{
					Method:       SpatialJoin4,
					HeightPolicy: policy.p,
					BufferBytes:  32 << 10,
					DiscardPairs: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Large-tree join benchmarks --------------------------------------------
//
// The small bench trees above (8k rects) finish a join in about a
// millisecond.  The large family joins two 120k-rect trees (STR bulk
// loaded; dynamic insertion of trees this size is what
// BenchmarkBuildRTreeDynamic measures), where the join runs long enough for
// its helpers on the spare cores to show.
//
// Building the two 120k-rect trees takes far longer than the benchmark
// smoke's -benchtime 1x iterations, so the whole family is gated behind
// testing.Short(): CI's smoke step passes -short and stays in the seconds,
// while a full `go test -bench LargeJoin .` still runs it.

const largeBenchCount = 120000

// skipLargeInShort gates the 120k-rect benchmarks out of -short smoke runs.
func skipLargeInShort(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping 120k-rect tree family in -short mode")
	}
}

var (
	largeTreesOnce sync.Once
	largeTreeR     *rtree.Tree
	largeTreeS     *rtree.Tree
)

func largeTreesForBench() (*rtree.Tree, *rtree.Tree) {
	largeTreesOnce.Do(func() {
		itemsR := GenerateDataset(DatasetConfig{Kind: Streets, Count: largeBenchCount, Seed: 31})
		itemsS := GenerateDataset(DatasetConfig{Kind: Rivers, Count: largeBenchCount, Seed: 32})
		var err error
		largeTreeR, err = BuildRTree(RTreeOptions{PageSize: PageSize4K}, itemsR, true)
		if err != nil {
			panic(err)
		}
		largeTreeS, err = BuildRTree(RTreeOptions{PageSize: PageSize4K}, itemsS, true)
		if err != nil {
			panic(err)
		}
	})
	return largeTreeR, largeTreeS
}

// BenchmarkLargeJoinSequential is the sequential SweepJoin (SJ4) baseline on
// the large tree pair.
func BenchmarkLargeJoinSequential(b *testing.B) {
	skipLargeInShort(b)
	r, s := largeTreesForBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := TreeJoin(r, s, JoinOptions{
			Method:        SpatialJoin4,
			BufferBytes:   1 << 20,
			UsePathBuffer: true,
			DiscardPairs:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Count == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkLargeJoinWithin is the within-distance SweepJoin on the large tree
// pair with its pairs materialised (about ten times the intersection join's):
// the expanded-rectangle sweep, the exact refinement of every candidate and
// the result slice.  B/op is the price of materialising.
func BenchmarkLargeJoinWithin(b *testing.B) {
	skipLargeInShort(b)
	r, s := largeTreesForBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := TreeJoin(r, s, JoinOptions{
			Method:        SpatialJoin4,
			BufferBytes:   1 << 20,
			UsePathBuffer: true,
			Predicate:     WithinDistancePredicate(0.0025),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) != res.Count || res.Count == 0 {
			b.Fatalf("%d pairs, count %d", len(res.Pairs), res.Count)
		}
	}
}

// BenchmarkLargeJoinUpdates is the update-heavy workload on the 120k-rect
// configuration: each iteration turns over 10% of both relations (deletes of
// the oldest rectangles, Hilbert-buffered inserts of fresh ones) and then
// runs SJ4 on the mutated trees.  The hint-hit rate shows the insertion
// buffer working at size.  Uses private trees — the shared large pair must
// stay immutable for the other benchmarks.
func BenchmarkLargeJoinUpdates(b *testing.B) {
	skipLargeInShort(b)
	itemsR := GenerateDataset(DatasetConfig{Kind: Streets, Count: largeBenchCount, Seed: 41})
	itemsS := GenerateDataset(DatasetConfig{Kind: Rivers, Count: largeBenchCount, Seed: 42})
	r, err := BuildRTree(RTreeOptions{PageSize: PageSize4K}, itemsR, true)
	if err != nil {
		b.Fatal(err)
	}
	s, err := BuildRTree(RTreeOptions{PageSize: PageSize4K}, itemsS, true)
	if err != nil {
		b.Fatal(err)
	}
	opts := JoinOptions{
		Method:        SpatialJoin4,
		BufferBytes:   1 << 20,
		UsePathBuffer: true,
		DiscardPairs:  true,
	}
	// Same turnover protocol the experiment table runs, at 120k scale.
	pairR := &experiments.UpdatePair{Tree: r, Live: itemsR, Kind: Streets, Seed: 1000, NextID: 1 << 20}
	pairS := &experiments.UpdatePair{Tree: s, Live: itemsS, Kind: Rivers, Seed: 2000, NextID: 1 << 20}
	var hitRate float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hitsR, appliedR := pairR.TurnOver(i)
		hitsS, appliedS := pairS.TurnOver(i)
		hitRate = float64(hitsR+hitsS) / float64(appliedR+appliedS)
		res, err := TreeJoin(r, s, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count == 0 {
			b.Fatal("empty result")
		}
	}
	b.StopTimer()
	b.ReportMetric(hitRate, "hint-hit-rate")
}

// BenchmarkSweepAppendPairs isolates the allocation-free sorted intersection
// test (the innermost CPU kernel of SJ3-SJ5) on two presorted node-sized
// rectangle sequences; it must report zero allocations.
func BenchmarkSweepAppendPairs(b *testing.B) {
	items := GenerateDataset(DatasetConfig{Kind: Streets, Count: 50, Seed: 3})
	rseq := make([]geom.Rect, len(items))
	sseq := make([]geom.Rect, len(items))
	for i, it := range items {
		rseq[i] = it.Rect
		sseq[len(items)-1-i] = it.Rect
	}
	col := metrics.NewCollector()
	sweep.SortByXL(rseq, col)
	sweep.SortByXL(sseq, col)
	var local metrics.Local
	var buf []sweep.Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sweep.AppendPairs(rseq, sseq, &local, buf[:0])
		if len(buf) == 0 {
			b.Fatal("no pairs")
		}
	}
	local.FlushTo(col)
}

// BenchmarkSortMergeJoin measures the index-free sort-merge baseline on the
// same relations as the tree joins.
func BenchmarkSortMergeJoin(b *testing.B) {
	treesForBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := SortMergeJoin(benchItemsR, benchItemsS); res.Count == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkRestrictionAblation isolates the search-space restriction
// (DESIGN.md ablation list): the sweep join with and without restriction.
func BenchmarkRestrictionAblation(b *testing.B) {
	r, s := treesForBench()
	for _, cfg := range []struct {
		name    string
		disable bool
	}{
		{"WithRestriction", false},
		{"WithoutRestriction", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := join.Join(r, s, join.Options{
					Method:             join.SJ3,
					BufferBytes:        128 << 10,
					DiscardPairs:       true,
					DisableRestriction: cfg.disable,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
