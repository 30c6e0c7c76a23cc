package rtree

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// tiedItems draws n float32-exact rectangles from a coarse grid: corners on
// 1/4096 steps and sides of one to four 1/8192 steps, so that many items
// share a centre x, a centre y or a lower x-corner.  Those ties are where an
// unstable sort's permutation depends on its exact moves.
func tiedItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := float32(rng.Intn(4096))/4096, float32(rng.Intn(4096))/4096
		w, h := float32(1+rng.Intn(4))/8192, float32(1+rng.Intn(4))/8192
		items[i] = Item{Rect: geom.Rect{XL: float64(x), YL: float64(y), XU: float64(x + w), YU: float64(y + h)}, Data: int32(i)}
	}
	return items
}

// pageIDs folds every node's page identifier and level, in depth-first
// order, into one hash.
func pageIDs(t *Tree) uint64 {
	h := uint64(14695981039346656037)
	t.Walk(func(n *Node) { h = fnv1a(fnv1a(h, uint64(n.ID)), uint64(n.Level)) })
	return h
}

// TestBulkLoadSTRIsBitIdenticalAtAnyGOMAXPROCS builds 120 000 tied items
// (the batch workload's tree size) at GOMAXPROCS 1, 2 and 4, where the load
// runs on one, two and four goroutines.  Every build must match the
// fingerprint and page identifiers the sequential sort.Sort loader of
// earlier versions produced, every node must already hold its xl-order,
// equal to a fresh build's, and CheckInvariants must be clean.
func TestBulkLoadSTRIsBitIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	items := tiedItems(120000, 44)
	centres := make([]float64, len(items))
	for i, it := range items {
		centres[i] = it.Rect.Center().X
	}
	slices.Sort(centres)
	tied := 0
	for i := 1; i < len(centres); i++ {
		if centres[i] == centres[i-1] {
			tied++
		}
	}
	if tied < 100000 {
		t.Fatalf("only %d tied centre-x keys", tied)
	}
	cases := []struct {
		pageSize int
		want     shape
		ids      uint64
	}{
		{storage.PageSize4K, shape{Height: 3, Nodes: 661, Size: 120000, Levels: []uint64{0x8c6fa8efc09ef3c5, 0x63066c52dca8c909, 0x52757e1835777883}}, 0x534df821a7a03bcd},
		{storage.PageSize1K, shape{Height: 4, Nodes: 2730, Size: 120000, Levels: []uint64{0x19410ebfeb1b87ef, 0x5c7c1bcd6544e5d4, 0x4caed5f1d7f13749, 0x4753efcc45ed90ad}}, 0xd71713d639a9d619},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			tr, err := BulkLoadSTR(Options{PageSize: c.pageSize}, items)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(tr); !got.equal(c.want) {
				t.Errorf("GOMAXPROCS %d, %d B pages: shape\n got  %v\n want %v", procs, c.pageSize, got, c.want)
			}
			if got := pageIDs(tr); got != c.ids {
				t.Errorf("GOMAXPROCS %d, %d B pages: page identifiers hash %#x, want %#x", procs, c.pageSize, got, c.ids)
			}
			tr.Walk(func(n *Node) {
				o := n.xlOrder
				if o == nil {
					t.Fatalf("GOMAXPROCS %d, %d B pages: node %d has no xl-order", procs, c.pageSize, n.ID)
				}
				fresh := buildXLOrder(n.Entries)
				if !slices.Equal(o.Perm, fresh.Perm) || !slices.Equal(o.PrefixMaxXU, fresh.PrefixMaxXU) ||
					!slices.Equal(o.YPerm, fresh.YPerm) || !slices.Equal(o.PrefixMaxYU, fresh.PrefixMaxYU) ||
					o.SortComparisons != fresh.SortComparisons {
					t.Fatalf("GOMAXPROCS %d, %d B pages: node %d's xl-order differs from a fresh build", procs, c.pageSize, n.ID)
				}
			})
			if err := tr.CheckInvariants(); err != nil {
				t.Errorf("GOMAXPROCS %d, %d B pages: %v", procs, c.pageSize, err)
			}
		}
	}
}
