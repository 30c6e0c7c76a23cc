package join

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// referenceSortPairs is the comparator sort SortPairs replaced; the radix
// sort must produce exactly its order.
func referenceSortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].R != pairs[j].R {
			return pairs[i].R < pairs[j].R
		}
		return pairs[i].S < pairs[j].S
	})
}

// checkSortPairs sorts a copy of pairs both ways and requires identical
// results.  Pairs that compare equal are equal, so the reference's
// instability cannot show.
func checkSortPairs(t *testing.T, pairs []Pair) {
	t.Helper()
	want := append([]Pair(nil), pairs...)
	referenceSortPairs(want)
	got := append([]Pair(nil), pairs...)
	SortPairs(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: SortPairs[%d] = %v, reference %v", len(pairs), i, got[i], want[i])
		}
	}
}

// sortShapes are the inputs the radix sort has a branch for: nothing to do,
// the sorted early exit, every byte position constant or not, the sign flip
// at the int32 extremes, and runs long enough to repeat one key many times.
func sortShapes(rng *rand.Rand, n int) map[string][]Pair {
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	shapes := map[string][]Pair{
		"all equal":  make([]Pair, n),
		"sorted":     make([]Pair, n),
		"reverse":    make([]Pair, n),
		"wide":       make([]Pair, n),
		"negative":   make([]Pair, n),
		"extremes":   make([]Pair, n),
		"duplicates": make([]Pair, n),
		"one byte":   make([]Pair, n),
	}
	for i := 0; i < n; i++ {
		shapes["all equal"][i] = Pair{R: -3, S: 9}
		shapes["sorted"][i] = Pair{R: int32(i/3) - 5, S: int32(i)}
		shapes["reverse"][i] = Pair{R: int32((n-i)/3) - 5, S: int32(n - i)}
		shapes["wide"][i] = Pair{R: int32(rng.Uint32()), S: int32(rng.Uint32())}
		shapes["negative"][i] = Pair{R: -int32(rng.Intn(1 << 20)), S: -int32(rng.Intn(1 << 20))}
		shapes["extremes"][i] = Pair{R: extremes[rng.Intn(len(extremes))], S: extremes[rng.Intn(len(extremes))]}
		shapes["duplicates"][i] = Pair{R: int32(rng.Intn(4)), S: int32(rng.Intn(4))}
		shapes["one byte"][i] = Pair{R: 1 << 20, S: int32(rng.Intn(256)) << 8}
	}
	return shapes
}

func TestSortPairsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 5000} {
		for name, pairs := range sortShapes(rng, n) {
			t.Run(name, func(t *testing.T) { checkSortPairs(t, pairs) })
		}
	}
}

// TestSortPairsQuick is the property over arbitrary identifiers: whatever
// the input, SortPairs and the comparator sort agree.
func TestSortPairsQuick(t *testing.T) {
	prop := func(ids []int32, narrow bool) bool {
		pairs := make([]Pair, len(ids)/2)
		for i := range pairs {
			pairs[i] = Pair{R: ids[2*i], S: ids[2*i+1]}
			if narrow { // few distinct keys: heavy duplication
				pairs[i] = Pair{R: pairs[i].R % 3, S: pairs[i].S % 5}
			}
		}
		checkSortPairs(t, pairs)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestSortPairsConcurrent shares the scratch pool between callers of
// different sizes; under -race it proves a pooled buffer is never used by
// two sorts at once.
func TestSortPairsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 50; round++ {
				pairs := make([]Pair, rng.Intn(3000))
				for i := range pairs {
					pairs[i] = Pair{R: int32(rng.Intn(1 << 16)), S: int32(rng.Uint32())}
				}
				SortPairs(pairs)
				for i := 1; i < len(pairs); i++ {
					a, b := pairs[i-1], pairs[i]
					if a.R > b.R || (a.R == b.R && a.S > b.S) {
						t.Errorf("goroutine %d round %d: out of order at %d", g, round, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
