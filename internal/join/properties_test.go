package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// These property tests pin down invariants that must hold for every join
// algorithm regardless of data distribution, buffer size or tree shape:
// the result set depends only on the data, never on the physical
// configuration.

// randomTreePair builds two trees over rectangles derived from a quick.Check
// seed, using a tiny node capacity so that even small inputs produce
// multi-level trees.
func randomTreePair(seed int64, n int) (*rtree.Tree, *rtree.Tree, []rtree.Item, []rtree.Item) {
	rng := rand.New(rand.NewSource(seed))
	opts := rtree.Options{PageSize: 8 * storage.EntrySize}
	makeItems := func(count int) []rtree.Item {
		items := make([]rtree.Item, count)
		for i := range items {
			x, y := rng.Float64(), rng.Float64()
			items[i] = rtree.Item{
				Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.1, YU: y + rng.Float64()*0.1},
				Data: int32(i),
			}
		}
		return items
	}
	itemsR := makeItems(n)
	itemsS := makeItems(n)
	r := rtree.MustNew(opts)
	s := rtree.MustNew(opts)
	r.InsertItems(itemsR)
	s.InsertItems(itemsS)
	return r.Snapshot(), s.Snapshot(), itemsR, itemsS
}

// TestJoinResultIndependentOfPhysicalConfiguration: the same pair set must be
// produced for every method, buffer size and path-buffer setting.
func TestJoinResultIndependentOfPhysicalConfiguration(t *testing.T) {
	f := func(seed int64, sizeSeed uint8) bool {
		n := 20 + int(sizeSeed)%180
		r, s, itemsR, itemsS := randomTreePair(seed, n)
		want := bruteForce(itemsR, itemsS)
		for _, method := range Methods {
			for _, buf := range []int{0, 4 << 10, 256 << 10} {
				for _, path := range []bool{false, true} {
					res, err := Join(r, s, Options{Method: method, BufferBytes: buf, UsePathBuffer: path})
					if err != nil {
						return false
					}
					got := asPairSet(res.Pairs)
					if len(got) != len(want) {
						return false
					}
					for p := range want {
						if !got[p] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestJoinCommutativity: joining S with R yields the mirrored pair set.
func TestJoinCommutativity(t *testing.T) {
	f := func(seed int64) bool {
		r, s, _, _ := randomTreePair(seed, 150)
		a, err := Join(r, s, Options{Method: SJ4, BufferBytes: 64 << 10})
		if err != nil {
			return false
		}
		b, err := Join(s, r, Options{Method: SJ4, BufferBytes: 64 << 10})
		if err != nil {
			return false
		}
		if a.Count != b.Count {
			return false
		}
		mirror := make(map[Pair]bool, b.Count)
		for _, p := range b.Pairs {
			mirror[Pair{R: p.S, S: p.R}] = true
		}
		for _, p := range a.Pairs {
			if !mirror[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestSortMergeAgreesWithTreeJoin: the index-free sort-merge baseline and the
// R*-tree join compute the same result on arbitrary data.
func TestSortMergeAgreesWithTreeJoin(t *testing.T) {
	f := func(seed int64) bool {
		r, s, itemsR, itemsS := randomTreePair(seed, 200)
		tree, err := Join(r, s, Options{Method: SJ4, BufferBytes: 64 << 10})
		if err != nil {
			return false
		}
		merge := SortMergeJoin(itemsR, itemsS, nil)
		if tree.Count != merge.Count {
			return false
		}
		got := asPairSet(merge.Pairs)
		for _, p := range tree.Pairs {
			if !got[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestComparisonsAreDeterministic: repeating the same join produces exactly
// the same cost counters, which the experiment harness relies on.
func TestComparisonsAreDeterministic(t *testing.T) {
	r, s, _, _ := randomTreePair(99, 300)
	for _, method := range Methods {
		a, err := Join(r, s, Options{Method: method, BufferBytes: 32 << 10, UsePathBuffer: true, DiscardPairs: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Join(r, s, Options{Method: method, BufferBytes: 32 << 10, UsePathBuffer: true, DiscardPairs: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.Metrics != b.Metrics {
			t.Fatalf("%v: metrics differ between identical runs:\n%+v\n%+v", method, a.Metrics, b.Metrics)
		}
	}
}

// TestBufferOnlyAffectsIO: the join comparisons must not depend on the buffer
// size.  Sorting does, the way Table 4 prices it — a page is sorted when a
// counted read brings it in — so it can only shrink as the buffer grows, and
// there are never more node sorts than disk reads.
func TestBufferOnlyAffectsIO(t *testing.T) {
	r, s, _, _ := randomTreePair(7, 400)
	var prev *Result
	for _, buf := range []int{0, 8 << 10, 512 << 10} {
		res, err := Join(r, s, Options{Method: SJ4, BufferBytes: buf, DiscardPairs: true})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.NodeSorts == 0 || m.NodeSorts > m.DiskReads {
			t.Fatalf("buffer %d: %d node sorts for %d disk reads", buf, m.NodeSorts, m.DiskReads)
		}
		if prev != nil {
			if m.Comparisons != prev.Metrics.Comparisons {
				t.Fatalf("join comparisons changed with the buffer size: %d, then %d", prev.Metrics.Comparisons, m.Comparisons)
			}
			if m.SortComparisons > prev.Metrics.SortComparisons {
				t.Fatalf("sorting grew with the buffer: %d, then %d", prev.Metrics.SortComparisons, m.SortComparisons)
			}
		}
		prev = res
	}
}
