package join

import (
	"testing"

	"repro/internal/storage"
)

// TestMaterialisedPairsCrossChunks joins with a result several chunks long
// and then, on the arena that join left in the pool, with a result shorter
// than one chunk: both must hold exactly the streamed pairs in stream order,
// in a slice of exactly that size.
func TestMaterialisedPairsCrossChunks(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	for _, tc := range []struct {
		pred      Predicate
		minChunks int
	}{
		{WithinDistance(0.03), 3},
		{Predicate{}, 0},
		{WithinDistance(0.03), 3},
	} {
		var streamed []Pair
		opts := Options{Method: SJ4, BufferBytes: 32 << 10, Predicate: tc.pred}
		opts.OnPair = func(p Pair) { streamed = append(streamed, p) }
		res, err := Join(r, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) < tc.minChunks*pairChunk || len(streamed)%pairChunk == 0 {
			t.Fatalf("%v: %d pairs do not exercise %d full chunks and a partial one", tc.pred, len(streamed), tc.minChunks)
		}
		if res.Count != len(streamed) || len(res.Pairs) != len(streamed) || cap(res.Pairs) != len(streamed) {
			t.Fatalf("%v: count %d, %d pairs (cap %d), %d streamed", tc.pred, res.Count, len(res.Pairs), cap(res.Pairs), len(streamed))
		}
		for i, p := range streamed {
			if res.Pairs[i] != p {
				t.Fatalf("%v: pair %d is %v, streamed %v", tc.pred, i, res.Pairs[i], p)
			}
		}
		// The result is the caller's: scribbling over it must not reach the
		// pooled chunks the next join appends to.
		for i := range res.Pairs {
			res.Pairs[i] = Pair{R: -1, S: -1}
		}
	}
}
