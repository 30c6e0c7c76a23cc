package join

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sweep"
)

// pairOf builds a distinguishable pair for position i.
func pairOf(i int) sweep.Pair { return sweep.Pair{R: int32(i), S: int32(^i)} }

// TestZkeySorterIsStable asserts the z-order schedule sort keeps the sweep
// order of pairs with equal keys, as the stable slice sort it replaced did.
func TestZkeySorterIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		z := &zkeySorter{}
		for i := 0; i < n; i++ {
			z.pairs = append(z.pairs, pairOf(i))
			z.zkeys = append(z.zkeys, uint64(rng.Intn(5)))
		}
		refKeys := append([]uint64(nil), z.zkeys...)
		refPairs := make([]int, 0, n)
		for i := 0; i < n; i++ {
			refPairs = append(refPairs, i)
		}
		sort.SliceStable(refPairs, func(i, j int) bool { return refKeys[refPairs[i]] < refKeys[refPairs[j]] })

		sort.Stable(z)
		for i := 0; i < n; i++ {
			if z.pairs[i] != pairOf(refPairs[i]) {
				t.Fatalf("trial=%d: order differs from stable reference at %d", trial, i)
			}
		}
	}
}
