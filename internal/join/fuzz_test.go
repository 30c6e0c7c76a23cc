package join

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Native Go fuzz targets for the pure scheduling kernels.  CI runs each as a
// short fuzzing smoke (-fuzztime per target) on top of the seed corpora
// below; locally, `go test -fuzz FuzzContiguousSplit ./internal/join` digs
// deeper.

// fuzzPairs decodes a byte string into join pairs, 8 bytes per pair.
func fuzzPairs(data []byte) []Pair {
	pairs := make([]Pair, 0, len(data)/8)
	for len(data) >= 8 {
		pairs = append(pairs, Pair{
			R: int32(binary.LittleEndian.Uint32(data[:4])),
			S: int32(binary.LittleEndian.Uint32(data[4:8])),
		})
		data = data[8:]
	}
	return pairs
}

// FuzzSortPairs checks SortPairs against the comparator sort it replaced on
// arbitrary inputs, including duplicates, negative identifiers and the
// int32 extremes (checkSortPairs, sortpairs_test.go).
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{
		2, 0, 0, 0, 1, 0, 0, 0,
		1, 0, 0, 0, 2, 0, 0, 0,
		1, 0, 0, 0, 1, 0, 0, 0,
		255, 255, 255, 255, 0, 0, 0, 0, // negative R
	})
	f.Add([]byte{
		0, 0, 0, 128, 255, 255, 255, 127, // (MinInt32, MaxInt32)
		255, 255, 255, 127, 0, 0, 0, 128, // (MaxInt32, MinInt32)
		0, 0, 0, 0, 0, 0, 0, 128, // (0, MinInt32)
		0, 0, 0, 128, 0, 0, 0, 128, // (MinInt32, MinInt32)
	})
	f.Add([]byte{ // differs only in the top byte of S
		7, 0, 0, 0, 0, 0, 0, 3,
		7, 0, 0, 0, 0, 0, 0, 1,
		7, 0, 0, 0, 0, 0, 0, 2,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortPairs(t, fuzzPairs(data))
	})
}

// FuzzContiguousSplit checks the spatial cut on arbitrary estimate vectors
// (one byte per task, so zeros and heavy skews both occur) and bin counts:
// the result must always be a partition of the input order into exactly
// bins non-empty contiguous runs, in order — every task scheduled exactly
// once, no duplicates, prefix structure intact.
func FuzzContiguousSplit(f *testing.F) {
	f.Add([]byte{10, 20, 30}, uint8(2))
	f.Add([]byte{0, 0, 0, 0}, uint8(4))
	f.Add([]byte{255, 0, 0, 0, 0, 0, 0, 255}, uint8(3))
	f.Add([]byte{1}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, binSeed uint8) {
		n := len(data)
		if n == 0 {
			return
		}
		est := make([]float64, n)
		order := make([]int32, n)
		for i, v := range data {
			est[i] = float64(v)
			order[i] = int32(i)
		}
		bins := 1 + int(binSeed)%n
		split := contiguousSplit(order, est, bins)
		if len(split) != bins {
			t.Fatalf("got %d bins, want %d", len(split), bins)
		}
		pos := 0
		for b, run := range split {
			if len(run) == 0 {
				t.Fatalf("bin %d is empty (n=%d bins=%d)", b, n, bins)
			}
			for _, i := range run {
				if pos >= n || order[pos] != i {
					t.Fatalf("bin %d breaks the order at position %d", b, pos)
				}
				pos++
			}
		}
		if pos != n {
			t.Fatalf("split covers %d of %d tasks", pos, n)
		}
	})
}

// fuzzItems decodes a byte string into R*-tree items, 4 bytes per item
// (centre x, centre y, width, height quantised to the unit square), capped
// at max items so tree builds stay fuzz-speed.
func fuzzItems(data []byte, max int) []rtree.Item {
	var items []rtree.Item
	for i := 0; len(data) >= 4 && i < max; i++ {
		x := float64(data[0]) / 256
		y := float64(data[1]) / 256
		w := float64(data[2]%32) / 256
		h := float64(data[3]%32) / 256
		items = append(items, rtree.Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + w, YU: y + h},
			Data: int32(i),
		})
		data = data[4:]
	}
	return items
}

// fuzzJoinPair builds the two trees and runs the predicate join with the
// method selected by methodByte, returning the sorted pairs.
func fuzzJoinPair(t *testing.T, rItems, sItems []rtree.Item, pred Predicate, methodByte uint8) []Pair {
	t.Helper()
	r, err := rtree.Build(rtree.Options{PageSize: 1024}, rItems, false)
	if err != nil {
		t.Fatalf("building R: %v", err)
	}
	s, err := rtree.Build(rtree.Options{PageSize: 1024}, sItems, false)
	if err != nil {
		t.Fatalf("building S: %v", err)
	}
	method := Method(int(SJ1) + int(methodByte)%5)
	res, err := Join(r, s, Options{Method: method, Predicate: pred})
	if err != nil {
		t.Fatalf("join %v %v: %v", method, pred, err)
	}
	return res.Pairs
}

// FuzzWithinDistance pins the within-distance join — every sequential method,
// arbitrary rectangle sets and radii — against the naive oracle.
func FuzzWithinDistance(f *testing.F) {
	f.Add([]byte{10, 10, 4, 4, 200, 200, 8, 8}, []byte{12, 12, 4, 4}, uint8(20), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{255, 255, 0, 0}, uint8(255), uint8(3))
	f.Add([]byte{128, 128, 31, 31, 1, 1, 1, 1}, []byte{130, 130, 2, 2, 50, 50, 10, 10}, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, rData, sData []byte, epsByte, methodByte uint8) {
		rItems := fuzzItems(rData, 48)
		sItems := fuzzItems(sData, 48)
		if len(rItems) == 0 || len(sItems) == 0 {
			return
		}
		eps := float64(epsByte) / 256 * 0.3
		got := fuzzJoinPair(t, rItems, sItems, WithinDistance(eps), methodByte)
		comparePairSets(t, "fuzz within-distance", got, bruteForceDistance(rItems, sItems, eps))
	})
}

// FuzzKNN pins the kNN join against the naive oracle, including the
// deterministic (distance, S-id) tie-break on duplicate rectangles.
func FuzzKNN(f *testing.F) {
	f.Add([]byte{10, 10, 4, 4, 200, 200, 8, 8}, []byte{12, 12, 4, 4, 40, 40, 2, 2}, uint8(2), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{255, 255, 0, 0, 255, 255, 0, 0}, uint8(5), uint8(4))
	f.Add([]byte{128, 128, 31, 31}, []byte{130, 130, 2, 2, 130, 130, 2, 2, 50, 50, 10, 10}, uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, rData, sData []byte, kByte, methodByte uint8) {
		rItems := fuzzItems(rData, 48)
		sItems := fuzzItems(sData, 48)
		if len(rItems) == 0 || len(sItems) == 0 {
			return
		}
		k := 1 + int(kByte)%6
		got := fuzzJoinPair(t, rItems, sItems, NearestNeighbors(k), methodByte)
		comparePairSets(t, "fuzz kNN", got, bruteForceKNN(rItems, sItems, k))
	})
}

// fuzzMixedItems decodes a byte string into a mixed rectangle set, 5 bytes
// per item (corner x, corner y, width, height, kind), capped at max items.
// Kinds 0-199 are small rectangles, 200-229 points, 230-249 wide slabs up to
// half the square, and 250-255 malformed: corners swapped on x or on y, a
// NaN, or an infinite corner.  It reports whether any item is malformed.
func fuzzMixedItems(data []byte, max int) (items []rtree.Item, malformed bool) {
	for i := 0; len(data) >= 5 && i < max; i++ {
		x := float64(data[0]) / 256
		y := float64(data[1]) / 256
		w := float64(data[2]%32) / 256
		h := float64(data[3]%32) / 256
		r := geom.Rect{XL: x, YL: y, XU: x + w, YU: y + h}
		switch kind := data[4]; {
		case kind < 200:
		case kind < 230:
			r.XU, r.YU = x, y
		case kind < 250:
			r.XU, r.YU = x+float64(data[2])/512, y+float64(data[3]%8)/256
		case kind < 252:
			r.XL, r.XU = x+w+1.0/256, x
		case kind < 254:
			r.YL, r.YU = y+h+1.0/256, y
		case kind == 254:
			r.YU = math.NaN()
		default:
			r.XU = math.Inf(1)
		}
		malformed = malformed || !r.WellFormed()
		items = append(items, rtree.Item{Rect: r, Data: int32(i)})
		data = data[5:]
	}
	return items, malformed
}

// FuzzJoinMethods holds every sequential method to the nested loop on small
// mixed rectangle sets.  A tree that holds a malformed entry must fail
// CheckInvariants with rtree.ErrMalformedEntry — the joins are exact only on
// well-formed rectangles.  On well-formed trees SJ1-SJ5 must return the
// nested loop's pair set for the intersection and the within-distance
// predicates, with helpers handed the leaf stage from the first leaf pair
// and without; and the helpers must not move a single pair of the order.
func FuzzJoinMethods(f *testing.F) {
	f.Add([]byte{10, 10, 4, 4, 0, 200, 200, 8, 8, 210, 100, 20, 200, 3, 240}, []byte{12, 12, 4, 4, 0, 0, 0, 255, 7, 235}, uint8(20), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{255, 255, 0, 0, 0, 1, 1, 1, 1, 250}, uint8(255), uint8(2))
	f.Add([]byte{128, 128, 31, 31, 10, 1, 1, 1, 1, 254}, []byte{130, 130, 2, 2, 1}, uint8(0), uint8(0))
	f.Add([]byte{50, 60, 9, 9, 99, 60, 50, 9, 9, 255}, []byte{55, 55, 3, 3, 99}, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, rData, sData []byte, epsByte, shape uint8) {
		rItems, rBad := fuzzMixedItems(rData, 120)
		sItems, sBad := fuzzMixedItems(sData, 120)
		if len(rItems) == 0 || len(sItems) == 0 {
			return
		}
		bulk := shape&1 != 0
		r, err := rtree.Build(rtree.Options{PageSize: 1024}, rItems, bulk)
		if err != nil {
			t.Fatalf("building R: %v", err)
		}
		s, err := rtree.Build(rtree.Options{PageSize: 1024}, sItems, bulk)
		if err != nil {
			t.Fatalf("building S: %v", err)
		}
		for _, c := range []struct {
			tree *rtree.Tree
			bad  bool
		}{{r, rBad}, {s, sBad}} {
			err := c.tree.CheckInvariants()
			if c.bad && !errors.Is(err, rtree.ErrMalformedEntry) {
				t.Fatalf("a tree with a malformed entry: CheckInvariants = %v, want ErrMalformedEntry", err)
			}
			if !c.bad && err != nil {
				t.Fatalf("a well-formed tree: CheckInvariants = %v", err)
			}
		}
		if rBad || sBad {
			return
		}

		helpers := 1 + int(shape>>1)%maxHelpers
		for _, pred := range []Predicate{Intersects(), WithinDistance(float64(epsByte) / 256 * 0.1)} {
			withHelpers(t, 0)
			oracle, err := Join(r, s, Options{Method: NestedLoop, Predicate: pred})
			if err != nil {
				t.Fatal(err)
			}
			want := asPairSet(oracle.Pairs)
			for _, m := range Methods {
				opts := Options{Method: m, Predicate: pred, BufferBytes: 8 << 10}
				withHelpers(t, 0)
				inline, err := Join(r, s, opts)
				if err != nil {
					t.Fatal(err)
				}
				withHelpers(t, helpers)
				helped, err := Join(r, s, opts)
				if err != nil {
					t.Fatal(err)
				}
				comparePairSets(t, m.String()+" "+pred.String(), inline.Pairs, want)
				if !slices.Equal(inline.Pairs, helped.Pairs) || inline.Metrics != helped.Metrics {
					t.Fatalf("%v %v: %d helpers changed the join: %d pairs, inline %d", m, pred, helpers, len(helped.Pairs), len(inline.Pairs))
				}
			}
		}
	})
}
