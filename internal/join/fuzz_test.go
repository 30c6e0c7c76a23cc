package join

import (
	"encoding/binary"
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
