package join

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// The golden values below were captured from the pre-refactor implementation
// (per-operation atomic counting, entry-copy sorts, closure-based sweep) on
// the deterministic datasets built by buildPair and buildHeightPair.  The
// batched metrics.Local accounting, the index sorts and the allocation-free
// sweep must reproduce every counter bit-identically, and the order-sensitive
// hash pins the exact pair emission order (which the stable sorts and the
// read schedules determine).
//
// SortComparisons and NodeSorts were re-pinned once, when the xl-order moved
// into the node: the baseline re-sorted both nodes' restricted survivors at
// every node-pair visit (158 = 2 x 79 visits that reached the sort); a node is
// now sorted whole, once per counted read that brings it in for a sweep
// (section 4.2, Table 4), so NodeSorts equals DiskReads wherever every read
// is swept and the sorting cost no longer depends on the restriction.  Every
// other counter and every hash is the baseline's.
type goldenRun struct {
	label   string
	metrics metrics.Snapshot
	count   int
	hash    uint64 // 0 = order not pinned for this configuration
}

// snap builds a Snapshot from the counters in declaration order:
// comparisons, sort comparisons, disk reads/writes, buffer/path hits, bytes
// read/written, node sorts, pairs tested/reported.
func snap(comp, sortComp, dr, dw, bh, ph, br, bw, ns, pt, pr int64) metrics.Snapshot {
	return metrics.Snapshot{
		Comparisons: comp, SortComparisons: sortComp,
		DiskReads: dr, DiskWrites: dw,
		BufferHits: bh, PathHits: ph,
		BytesRead: br, BytesWritten: bw,
		NodeSorts: ns, PairsTested: pt, PairsReported: pr,
	}
}

var goldenEqualHeights = []goldenRun{
	{"NestedLoop", snap(5948377, 0, 118, 0, 3416, 0, 120832, 0, 0, 0, 46), 46, 2455035320889178970},
	{"SpatialJoin1", snap(198998, 0, 97, 0, 53, 64, 99328, 0, 0, 127696, 46), 46, 8541608788100112254},
	{"SpatialJoin2", snap(33006, 0, 97, 0, 53, 64, 99328, 0, 0, 7710, 46), 46, 8541608788100112254},
	{"SpatialJoin3", snap(24227, 14463, 97, 0, 47, 70, 99328, 0, 97, 152, 46), 46, 8945983103180869958},
	{"SpatialJoin4", snap(24227, 14463, 97, 0, 41, 76, 99328, 0, 97, 152, 46), 46, 15461635527682096422},
	{"SpatialJoin5", snap(24227, 14463, 97, 0, 36, 81, 99328, 0, 97, 152, 46), 46, 8774010023287257590},
}

var goldenNoRestrict = goldenRun{
	"SJ3-noRestrict", snap(16866, 14463, 97, 0, 117, 0, 99328, 0, 97, 152, 46), 46, 0,
}

var goldenHeights = []goldenRun{
	{"heights-policy(a)", snap(30085, 30, 34, 0, 39, 311, 34816, 0, 2, 1197, 25), 25, 0},
	{"heights-policy(b)", snap(30085, 30, 34, 0, 16, 15, 34816, 0, 2, 1197, 25), 25, 0},
	{"heights-policy(c)", snap(28981, 1875, 34, 0, 17, 333, 34816, 0, 15, 366, 25), 25, 0},
}

// pairHash folds the pair stream into an order-sensitive FNV-1a hash.
func pairHash(h *uint64) func(Pair) {
	*h = 14695981039346656037
	return func(p Pair) {
		*h = (*h ^ uint64(uint32(p.R))) * 1099511628211
		*h = (*h ^ uint64(uint32(p.S))) * 1099511628211
	}
}

func buildHeightPair(t testing.TB) (*rtree.Tree, *rtree.Tree) {
	t.Helper()
	big := datagen.Generate(datagen.Config{Kind: datagen.Streets, Count: 6000, Seed: 42})
	small := datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: 300, Seed: 43})
	rb := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	sb := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	rb.InsertItems(big)
	sb.InsertItems(small)
	if rb.Height() == sb.Height() {
		t.Fatalf("want different heights, got %d and %d", rb.Height(), sb.Height())
	}
	return rb, sb
}

func checkGolden(t *testing.T, want goldenRun, got metrics.Snapshot, count int, hash uint64) {
	t.Helper()
	if got != want.metrics {
		t.Errorf("%s: metrics drifted from the per-op counting baseline:\n got  %#v\n want %#v", want.label, got, want.metrics)
	}
	if count != want.count {
		t.Errorf("%s: count = %d, want %d", want.label, count, want.count)
	}
	if want.hash != 0 && hash != want.hash {
		t.Errorf("%s: pair emission order changed: hash %d, want %d", want.label, hash, want.hash)
	}
}

// TestBatchedCountingMatchesPerOpGolden asserts that the batched
// metrics.Local accounting of the join hot path yields snapshots that are
// byte-identical to the per-operation atomic counting it replaced, for every
// algorithm SJ1-SJ5, the nested-loop baseline, the no-restriction ablation
// and all three height policies.
func TestBatchedCountingMatchesPerOpGolden(t *testing.T) {
	r, s, _, _ := buildPair(t, 2000, 2000, storage.PageSize1K)
	for i, m := range append([]Method{NestedLoop}, Methods...) {
		var h uint64
		res, err := Join(r, s, Options{Method: m, BufferBytes: 64 << 10, UsePathBuffer: true, OnPair: pairHash(&h)})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, goldenEqualHeights[i], res.Metrics, res.Count, h)
	}

	res, err := Join(r, s, Options{Method: SJ3, BufferBytes: 64 << 10, DisableRestriction: true})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenNoRestrict, res.Metrics, res.Count, 0)

	rb, sb := buildHeightPair(t)
	for i, pol := range []HeightPolicy{PolicyWindowPerPair, PolicyBatchedWindows, PolicySweepOrder} {
		res, err := Join(rb, sb, Options{Method: SJ4, BufferBytes: 32 << 10, UsePathBuffer: true, HeightPolicy: pol})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, goldenHeights[i], res.Metrics, res.Count, 0)
	}
}

// TestJoinIsDeterministic asserts that repeated runs of every algorithm
// produce identical snapshots and identical pair orders: batch flushing must
// not introduce any run-to-run variation.
func TestJoinIsDeterministic(t *testing.T) {
	r, s, _, _ := buildPair(t, 1500, 1500, storage.PageSize1K)
	for _, m := range Methods {
		var h1, h2 uint64
		res1, err := Join(r, s, Options{Method: m, BufferBytes: 32 << 10, UsePathBuffer: true, OnPair: pairHash(&h1)})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := Join(r, s, Options{Method: m, BufferBytes: 32 << 10, UsePathBuffer: true, OnPair: pairHash(&h2)})
		if err != nil {
			t.Fatal(err)
		}
		if res1.Metrics != res2.Metrics || res1.Count != res2.Count || h1 != h2 {
			t.Errorf("%v: two identical runs disagree: %+v/%d/%d vs %+v/%d/%d",
				m, res1.Metrics, res1.Count, h1, res2.Metrics, res2.Count, h2)
		}
	}
}
