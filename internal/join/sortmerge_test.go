package join

import (
	"testing"

	"repro/internal/storage"
)

func TestSortMergeJoinMatchesBruteForce(t *testing.T) {
	_, _, itemsR, itemsS := buildPair(t, 3000, 3000, storage.PageSize1K)
	want := bruteForce(itemsR, itemsS)
	res := SortMergeJoin(itemsR, itemsS, nil)
	got := asPairSet(res.Pairs)
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing pair %v", p)
		}
	}
	if res.Metrics.SortComparisons == 0 || res.Metrics.Comparisons == 0 {
		t.Fatal("sort-merge join must charge sorting and join comparisons")
	}
	if res.Metrics.DiskReads != 0 {
		t.Fatal("sort-merge join charges no I/O")
	}
	if res.Count != len(res.Pairs) {
		t.Fatal("count mismatch")
	}
}

func TestSortMergeJoinEmpty(t *testing.T) {
	res := SortMergeJoin(nil, nil, nil)
	if res.Count != 0 {
		t.Fatalf("empty join produced %d pairs", res.Count)
	}
}
