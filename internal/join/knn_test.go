package join

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ledgerKNNPair rebuilds the shape of the ledger's kNN op (bench/gen.go,
// bench/batch.go): a uniform R against an S with an empty square in the
// middle, sides up to 0.002, float32-exact corners, STR-loaded on 4 KiB pages.
func ledgerKNNPair(tb testing.TB, nR, nS int, seed int64) (r, s *rtree.Tree) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	f32 := func(v float64) float64 { return float64(float32(v)) }
	rect := func() geom.Rect {
		const maxSide = 0.002
		w := maxSide * (1 - rng.Float64())
		h := maxSide * (1 - rng.Float64())
		x := rng.Float64() * (1 - maxSide)
		y := rng.Float64() * (1 - maxSide)
		return geom.Rect{XL: f32(x), YL: f32(y), XU: f32(x + w), YU: f32(y + h)}
	}
	rItems := make([]rtree.Item, nR)
	for i := range rItems {
		rItems[i] = rtree.Item{Rect: rect(), Data: int32(i)}
	}
	sItems := make([]rtree.Item, 0, nS)
	for len(sItems) < nS {
		q := rect()
		if q.XL >= 0.45 && q.XL < 0.55 && q.YL >= 0.45 && q.YL < 0.55 {
			continue
		}
		sItems = append(sItems, rtree.Item{Rect: q, Data: int32(len(sItems))})
	}
	var err error
	if r, err = rtree.BulkLoadSTR(rtree.Options{PageSize: storage.PageSize4K}, rItems); err != nil {
		tb.Fatal(err)
	}
	if s, err = rtree.BulkLoadSTR(rtree.Options{PageSize: storage.PageSize4K}, sItems); err != nil {
		tb.Fatal(err)
	}
	return r, s
}

// ledgerKNNOptions are the ledger's join options for its kNN op.
func ledgerKNNOptions() Options {
	return Options{Method: SJ4, BufferBytes: 128 << 10, UsePathBuffer: true, Predicate: NearestNeighbors(4), DiscardPairs: true}
}

// daemonKNNPair rebuilds the shape a spatialjoind kNN request joins
// (bench/serve.go): nR uniform R rectangles with sides up to rMaxSide and
// float32-exact corners, inserted through a 256-op insert buffer as the
// daemon's writer applies them, against nS STR-loaded squares of side sSide
// (the daemon's synthetic S), both on 4 KiB pages.
func daemonKNNPair(tb testing.TB, nR int, rMaxSide float64, nS int, sSide float64, seed int64) (r, s *rtree.Tree) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	f32 := func(v float64) float64 { return float64(float32(v)) }
	r = rtree.MustNew(rtree.Options{PageSize: storage.PageSize4K})
	buf := rtree.NewInsertBuffer(r, 256)
	for i := 0; i < nR; i++ {
		w := rMaxSide * (1 - rng.Float64())
		h := rMaxSide * (1 - rng.Float64())
		x := rng.Float64() * (1 - rMaxSide)
		y := rng.Float64() * (1 - rMaxSide)
		buf.Stage(geom.Rect{XL: f32(x), YL: f32(y), XU: f32(x + w), YU: f32(y + h)}, int32(i))
	}
	buf.Flush()
	sItems := make([]rtree.Item, nS)
	for i := range sItems {
		x, y := rng.Float64(), rng.Float64()
		sItems[i] = rtree.Item{Rect: geom.Rect{XL: x, YL: y, XU: x + sSide, YU: y + sSide}, Data: int32(i)}
	}
	var err error
	if s, err = rtree.BulkLoadSTR(rtree.Options{PageSize: storage.PageSize4K}, sItems); err != nil {
		tb.Fatal(err)
	}
	return r, s
}

// serveReadKNNPair is the serve-read workload's shape: 10 000 R rectangles
// against 7 500 squares, both of side up to 0.02.
func serveReadKNNPair(tb testing.TB) (r, s *rtree.Tree) {
	return daemonKNNPair(tb, 10000, 0.02, 7500, 0.02, 11)
}

// knnSchedule is what the leaf kernel must not move: the best-first read
// schedule (DiskReads, NodeSorts), the result size and the emitted pair
// order.
type knnSchedule struct {
	diskReads, nodeSorts int64
	count                int
	hash                 uint64
}

// TestKNNReadScheduleIsPinned holds the kNN join's read schedule and pair
// order to the values recorded before the two-dimensional leaf kernel: the
// kernel leaves every item's heap, after every leaf pair, with the same K
// best candidates the x-only scan left, so the node bounds, the pop order
// and the emission cannot move.
func TestKNNReadScheduleIsPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func(testing.TB) (*rtree.Tree, *rtree.Tree)
		want  knnSchedule
	}{
		{"ledger 2000x2000", func(tb testing.TB) (*rtree.Tree, *rtree.Tree) { return ledgerKNNPair(tb, 2000, 2000, 1) },
			knnSchedule{diskReads: 24, nodeSorts: 11, count: 8000, hash: 11366870705911383188}},
		{"serve-read", serveReadKNNPair,
			knnSchedule{diskReads: 232, nodeSorts: 151, count: 40000, hash: 11404072331007808983}},
	}
	for _, c := range cases {
		r, s := c.build(t)
		opts := ledgerKNNOptions()
		var hash uint64
		opts.OnPair = pairHash(&hash)
		res, err := Join(r, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := knnSchedule{res.Metrics.DiskReads, res.Metrics.NodeSorts, res.Count, hash}
		if got != c.want {
			t.Errorf("%s: schedule %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestKNNLeafKernelBoundsBothAxes is the guard on the kernel's windows and
// its leaf order.  On the serve-read shape an x-window that spans the S
// leaf's whole height made 115 distance computations per R item, the
// strips' y-windows about 26 with the leaves met in the queue's order, and
// 14.4 nearest leaf first; on the ledger's shape (ledgerKNNPair(10000,
// 10000)) 26.8 and 11.6.  A kernel over the caps has lost a bound or the
// leaf order.
func TestKNNLeafKernelBoundsBothAxes(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(testing.TB) (*rtree.Tree, *rtree.Tree)
		cap   float64
	}{
		{"serve-read", serveReadKNNPair, 18},
		{"ledger-10000", func(tb testing.TB) (*rtree.Tree, *rtree.Tree) { return ledgerKNNPair(tb, 10000, 10000, 1) }, 15},
	} {
		r, s := c.build(t)
		res, err := Join(r, s, ledgerKNNOptions())
		if err != nil {
			t.Fatal(err)
		}
		if perItem := float64(res.Metrics.PairsTested) / float64(r.Len()); perItem > c.cap {
			t.Errorf("%s: %.1f distance computations per R item, want at most %g", c.name, perItem, c.cap)
		}
	}
}

// knnComparisonsBefore is Metrics.Comparisons of the best-first kNN join on
// ledgerKNNPair(2000, 2000, seed 1) under ledgerKNNOptions at the commit
// before the per-item prunes (PR 22, 66866da): every popped leaf pair paid
// the full |R leaf| x |S leaf| product of distance computations (2-4
// comparisons each) plus one admission test per product cell.
const knnComparisonsBefore = 7837245

// TestKNNComparisonsStayPruned is the counted-cost guard: the windowed leaf
// kernel and the per-node bounds brought the ledger-shaped join to under a
// fifth of the product's comparisons, and a change that lets it back over
// that line has lost one of the prunes.
func TestKNNComparisonsStayPruned(t *testing.T) {
	r, s := ledgerKNNPair(t, 2000, 2000, 1)
	res, err := Join(r, s, ledgerKNNOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2000*4 {
		t.Fatalf("%d pairs, want %d", res.Count, 2000*4)
	}
	if limit := int64(knnComparisonsBefore / 5); res.Metrics.Comparisons > limit {
		t.Fatalf("kNN join charged %d comparisons, more than a fifth (%d) of the %d the leaf x leaf product cost",
			res.Metrics.Comparisons, limit, knnComparisonsBefore)
	}
}

// TestKNNAllocationsDoNotGrowWithR pins the flat candidate slab and the
// sort-free emission: a counting kNN join allocates its state in a fixed
// number of slices, not per R item.
func TestKNNAllocationsDoNotGrowWithR(t *testing.T) {
	const ceiling = 64
	for _, nR := range []int{250, 2000} {
		r, s := ledgerKNNPair(t, nR, 2000, 1)
		opts := ledgerKNNOptions()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Join(r, s, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("|R|=%d: %.0f allocations per kNN join, ceiling %d", nR, allocs, ceiling)
		}
	}
}

// TestKNNPairsTested pins what PairsTested means under kNN: the item-pair
// distance computations actually made.  The oracle makes all |R|·|S|; the
// best-first join at least one per reported neighbour and, on the ledger's
// shape, a small fraction of the product.
func TestKNNPairsTested(t *testing.T) {
	r, s := ledgerKNNPair(t, 2000, 2000, 1)
	opts := ledgerKNNOptions()
	best, err := Join(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Method = NestedLoop
	oracle, err := Join(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2000 * 2000); oracle.Metrics.PairsTested != want {
		t.Errorf("nested loop tested %d pairs, want the full product %d", oracle.Metrics.PairsTested, want)
	}
	if got := best.Metrics.PairsTested; got < int64(best.Count) || got > oracle.Metrics.PairsTested/10 {
		t.Errorf("best-first join tested %d pairs for %d neighbours (product %d)", got, best.Count, oracle.Metrics.PairsTested)
	}
	// Two to four comparisons per distance computation, all of them charged.
	if best.Metrics.Comparisons < 2*best.Metrics.PairsTested {
		t.Errorf("%d comparisons cannot cover %d distance computations", best.Metrics.Comparisons, best.Metrics.PairsTested)
	}
}

// TestKNNDuplicateRIdentifiers: R entries that share an identifier are still
// separate entries — each reports the neighbours of its own rectangle.  (The
// traversal used to find an item's heap through a map keyed by identifier,
// so the later entry collected both rectangles' candidates and the earlier
// one reported nothing.)
func TestKNNDuplicateRIdentifiers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	point := func() geom.Rect {
		x, y := rng.Float64(), rng.Float64()
		return geom.Rect{XL: x, YL: y, XU: x + 0.01, YU: y + 0.01}
	}
	rItems := make([]rtree.Item, 300)
	for i := range rItems {
		rItems[i] = rtree.Item{Rect: point(), Data: int32(i % 50)}
	}
	sItems := make([]rtree.Item, 200)
	for i := range sItems {
		sItems[i] = rtree.Item{Rect: point(), Data: int32(i)}
	}
	r, err := rtree.Build(rtree.Options{PageSize: storage.PageSize1K}, rItems, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rtree.Build(rtree.Options{PageSize: storage.PageSize1K}, sItems, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 250} {
		var want []Pair
		for _, a := range rItems {
			for p := range bruteForceKNN([]rtree.Item{a}, sItems, k) {
				want = append(want, p)
			}
		}
		want = sortedCopy(want)
		if n := len(rItems) * min(k, len(sItems)); len(want) != n {
			t.Fatalf("oracle: %d pairs, want %d", len(want), n)
		}
		check := func(label string, res *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := sortedCopy(res.Pairs)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d pairs, want %d", label, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: pair %d is %v, want %v", label, k, i, got[i], want[i])
				}
			}
		}
		opts := Options{Method: SJ4, BufferBytes: 64 << 10, Predicate: NearestNeighbors(k)}
		res, err := Join(r, s, opts)
		check("best-first", res, err)
		opts.Method = NestedLoop
		res, err = Join(r, s, opts)
		check("nested loop", res, err)
	}
}

// knnTieCase is one hand-built neighbourhood in which more than K
// candidates tie; all coordinates are dyadic, so the tied distances are
// equal bit for bit.
type knnTieCase struct {
	name string
	r    []geom.Rect
	s    []geom.Rect
}

// knnTieCases builds the cases for neighbour count k around the R item
// [0.5, 0.53125]².
func knnTieCases(k int) []knnTieCase {
	const lo, hi, g = 0.5, 0.53125, 0.0625
	item := geom.Rect{XL: lo, YL: lo, XU: hi, YU: hi}
	var overlapping, ring, edge []geom.Rect
	for i := 0; i < k+3; i++ {
		// All intersect the item: distance zero, however they are shifted.
		d := float64(i) / 1024
		overlapping = append(overlapping, geom.Rect{XL: lo - d, YL: lo + d, XU: hi - d, YU: hi + d})
	}
	for i := 0; i < k+2; i++ {
		// Points at distance exactly g on all four sides, repeated.
		ring = append(ring,
			geom.Rect{XL: hi + g, YL: lo, XU: hi + g, YU: lo},
			geom.Rect{XL: lo - g, YL: hi, XU: lo - g, YU: hi},
			geom.Rect{XL: lo, YL: hi + g, XU: hi, YU: hi + g},
			geom.Rect{XL: hi, YL: lo - g, XU: hi, YU: lo - g})
	}
	for i := 0; i < k+2; i++ {
		// Overlapping the item in y and a gap of exactly g in x: once the
		// heap is full of them the next one sits on the window's edge,
		// gap² == tau, on the right (XL) and on the left (XU) alike.
		d := float64(i) / 512
		edge = append(edge,
			geom.Rect{XL: hi + g, YL: lo - d, XU: hi + g + d, YU: hi + d},
			geom.Rect{XL: lo - g - d, YL: lo - d, XU: lo - g, YU: hi + d})
	}
	return []knnTieCase{
		{"overlapping at distance zero", []geom.Rect{item}, overlapping},
		{"equal positive distance", []geom.Rect{item, {XL: lo, YL: lo, XU: lo, YU: lo}}, ring},
		{"on the window edge", []geom.Rect{item}, edge},
	}
}

// knnFiller is a deterministic lattice of n small rectangles inside
// [x0, x0+0.2] x [0.05, 0.95], far from the tie neighbourhoods.
func knnFiller(n int, x0 float64) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		x := x0 + float64(i%16)/80
		y := 0.05 + float64(i/16)/64
		out[i] = geom.Rect{XL: x, YL: y, XU: x + 1.0/256, YU: y + 1.0/256}
	}
	return out
}

// checkNeighbourOrder asserts the emission contract of one sequential kNN
// result: every R item's neighbours form one run, ascending by (distance,
// S id).
func checkNeighbourOrder(t *testing.T, label string, pairs []Pair, rRects, sRects map[int32]geom.Rect) {
	t.Helper()
	seen := make(map[int32]bool)
	for i, p := range pairs {
		if i > 0 && pairs[i-1].R == p.R {
			a := nnCand{d2: rectDist2(rRects[p.R], sRects[pairs[i-1].S]), sID: pairs[i-1].S}
			b := nnCand{d2: rectDist2(rRects[p.R], sRects[p.S]), sID: p.S}
			if !b.worse(a) {
				t.Fatalf("%s: R item %d lists neighbour %v before %v", label, p.R, a, b)
			}
			continue
		}
		if seen[p.R] {
			t.Fatalf("%s: R item %d's neighbours are not one run", label, p.R)
		}
		seen[p.R] = true
	}
}

// TestKNNTieWall runs the tie and boundary cases — more than K equidistant
// candidates, S identifiers inserted in descending order so that every later
// candidate must displace an earlier one — through the oracle, the nested
// loop and the best-first join, on trees of every height combination and with k > |S|.  Each prune is exact only
// because it is strict: making the leaf stop, either y-gap check or either
// pop-time bound test non-strict fails here (the push-time test has
// TestKNNPushBoundIsStrict; the 8-entry leaves are one strip each, so the
// x-side strip breaks are FuzzKNNLeafKernel's seeds).
func TestKNNTieWall(t *testing.T) {
	pageSize := 8 * storage.EntrySize
	for _, fill := range [][2]int{{0, 0}, {300, 0}, {0, 300}, {300, 300}} {
		for _, kCase := range []int{1, 4} {
			for _, tc := range knnTieCases(kCase) {
				rRects := append(append([]geom.Rect(nil), tc.r...), knnFiller(fill[0], 0.75)...)
				sRects := append(append([]geom.Rect(nil), tc.s...), knnFiller(fill[1], 0.05)...)
				rItems := make([]rtree.Item, len(rRects))
				rByID := make(map[int32]geom.Rect)
				for i, q := range rRects {
					rItems[i] = rtree.Item{Rect: q, Data: int32(i)}
					rByID[int32(i)] = q
				}
				sItems := make([]rtree.Item, len(sRects))
				sByID := make(map[int32]geom.Rect)
				for i, q := range sRects {
					id := int32(len(sRects) - 1 - i) // descending
					sItems[i] = rtree.Item{Rect: q, Data: id}
					sByID[id] = q
				}
				r, err := rtree.Build(rtree.Options{PageSize: pageSize}, rItems, false)
				if err != nil {
					t.Fatal(err)
				}
				s, err := rtree.Build(rtree.Options{PageSize: pageSize}, sItems, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{kCase, len(sItems) + 3} {
					label := fmt.Sprintf("%s/fill=%v/heights=%d,%d/k=%d", tc.name, fill, r.Height(), s.Height(), k)
					want := bruteForceKNN(rItems, sItems, k)
					for _, method := range []Method{NestedLoop, SJ4} {
						res, err := Join(r, s, Options{Method: method, BufferBytes: 8 << 10, Predicate: NearestNeighbors(k)})
						if err != nil {
							t.Fatalf("%s/%v: %v", label, method, err)
						}
						comparePairSets(t, label+"/"+method.String(), res.Pairs, want)
						checkNeighbourOrder(t, label+"/"+method.String(), res.Pairs, rByID, sByID)
					}
				}
			}
		}
	}
}

// TestKNNPushBoundIsStrict: a child pair exactly as far away as its R node's
// bound can still hold an equidistant candidate with a smaller S identifier,
// so only a strictly larger distance drops it; and a bound, once tightened,
// is never raised by a later recomputation.
func TestKNNPushBoundIsStrict(t *testing.T) {
	rn := &rtree.Node{Entries: []rtree.Entry{{Data: 0}, {Data: 1}}}
	sn := &rtree.Node{}
	st := newKNNState(2, rn)
	var local metrics.Local
	var comps int64
	seed := func(i int, d2 float64, sID int32) {
		st.items[i].n = int32(offer(st.cands[i*2:(i+1)*2], int(st.items[i].n), nnCand{d2: d2, sID: sID}, &comps))
	}
	seed(0, 0.25, 10)
	seed(0, 0.0625, 11)
	seed(1, 0.125, 12)
	st.tighten(0, &local)
	if !math.IsInf(st.nodes[0].bound, 1) {
		t.Fatalf("bound %g with an unfilled heap, want +Inf", st.nodes[0].bound)
	}
	seed(1, 0.5, 13)
	st.tighten(0, &local)
	if st.nodes[0].bound != 0.5 {
		t.Fatalf("bound %g, want the largest kth-best distance 0.5", st.nodes[0].bound)
	}
	st.push(0.5, 0, rn, sn)
	if len(st.queue) != 1 {
		t.Fatal("a pair at exactly the bound was dropped")
	}
	st.push(math.Nextafter(0.5, 1), 0, rn, sn)
	if len(st.queue) != 1 {
		t.Fatal("a pair strictly beyond the bound was queued")
	}
	seed(1, 0.03125, 14)
	st.tighten(0, &local)
	if st.nodes[0].bound != 0.25 {
		t.Fatalf("bound %g after item 1 improved, want item 0's 0.25", st.nodes[0].bound)
	}
	if local.Comparisons == 0 {
		t.Fatal("recomputing a bound was not charged")
	}
}

// fuzzLeaf decodes four bytes per entry onto a 1/16 lattice with sides up to
// 3/16, so that equal corners, equal distances and duplicate rectangles are
// the common case.
func fuzzLeaf(data []byte, max int, firstID, idStep int32) *rtree.Node {
	n := &rtree.Node{}
	for i := 0; len(data) >= 4 && i < max; i++ {
		x, y := float64(data[0]%16)/16, float64(data[1]%16)/16
		w, h := float64(data[2]%4)/16, float64(data[3]%4)/16
		n.Entries = append(n.Entries, rtree.Entry{
			Rect: geom.Rect{XL: x, YL: y, XU: x + w, YU: y + h},
			Data: firstID + int32(i)*idStep,
		})
		data = data[4:]
	}
	return n
}

// leafBytes encodes n entries for fuzzLeaf, entry i's four bytes from at(i).
func leafBytes(n int, at func(i int) [4]byte) []byte {
	out := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		b := at(i)
		out = append(out, b[:]...)
	}
	return out
}

// tieSeed is FuzzKNNLeafKernel seed data that leaves item 0's heap (K = 1,
// one R item) holding a single candidate at distance d/16 with S id 41: the
// first twenty bytes offer worse candidates, the last the kept one, so every
// even S id below 42 at exactly that distance must still displace it.
func tieSeed(d byte) []byte {
	out := make([]byte, 21)
	for i := range out[:20] {
		out[i] = 7
	}
	out[20] = d
	return out
}

// FuzzKNNLeafKernel pins the windowed leaf kernel, on a group of one S leaf,
// against the plain leaf x leaf product it replaced: from any heaps — empty,
// partly filled or full of candidates other leaves left behind — both must
// arrive at the same K best per R item.
func FuzzKNNLeafKernel(f *testing.F) {
	f.Add([]byte{8, 8, 1, 1}, []byte{9, 8, 0, 0, 9, 8, 0, 0, 9, 8, 0, 0, 2, 8, 1, 1}, []byte{1, 1, 1}, uint8(2))
	f.Add([]byte{4, 4, 0, 0, 4, 4, 0, 0}, []byte{4, 4, 0, 0, 4, 4, 0, 0, 4, 4, 0, 0, 4, 4, 0, 0}, []byte{}, uint8(1))
	f.Add([]byte{0, 0, 3, 3, 15, 15, 0, 0}, []byte{12, 1, 2, 0, 1, 12, 0, 2, 7, 7, 3, 3}, []byte{0, 16, 200, 16, 16}, uint8(3))
	// Seeds for the strips (rtree.StripLen positions of the xl-order):
	// forty entries, three strips, scanned from the middle one.
	f.Add([]byte{7, 7, 1, 1, 2, 12, 0, 0}, leafBytes(40, func(i int) [4]byte {
		return [4]byte{byte(i * 7 % 16), byte(i * 5 % 16), byte(i % 3), byte(i % 2)}
	}), []byte{3, 5}, uint8(3))
	// Twenty-one entries: a short last strip of five.
	f.Add([]byte{14, 3, 1, 0, 15, 15, 0, 0}, leafBytes(21, func(i int) [4]byte {
		return [4]byte{byte(i * 3 % 16), byte(i * 11 % 16), 0, byte(i % 4)}
	}), []byte{}, uint8(1))
	// Two entries per column and one YL for all: the strip boundary falls
	// between two ties, in x and in y.
	f.Add([]byte{8, 8, 0, 0, 0, 8, 3, 0}, leafBytes(32, func(i int) [4]byte {
		return [4]byte{byte(i / 2), 8, byte(i % 2), 0}
	}), []byte{1, 1, 1, 1}, uint8(2))
	// y-gap² == tau: item 0 spans [8/16, 9/16]² and holds one candidate at
	// distance 2/16 (S id 41); entry 0 (S id 0) lies exactly 2/16 above it,
	// the other nineteen far below in other columns.  A non-strict y break
	// loses entry 0.
	f.Add([]byte{8, 8, 1, 1}, leafBytes(20, func(i int) [4]byte {
		if i == 0 {
			return [4]byte{8, 11, 0, 0}
		}
		return [4]byte{byte(i % 16), 0, 0, 0}
	}), tieSeed(2), uint8(0))
	// The downward y break reads the strip's running maximum of YU: entry 1
	// lies 3/16 below the item and comes first downwards, entry 0 begins
	// lower but reaches to 1/16 below it.
	f.Add([]byte{4, 12, 1, 1}, []byte{4, 8, 0, 3, 4, 9, 0, 0}, tieSeed(2), uint8(0))
	// x-gap² == tau at a strip's first entry: sixteen entries at x = 0 fill
	// strip 0, entry 16 (S id 32) begins exactly 2/16 right of the item and
	// opens strip 1.  A non-strict strip break loses it.
	f.Add([]byte{0, 0, 1, 1}, leafBytes(20, func(i int) [4]byte {
		switch {
		case i < 16:
			return [4]byte{0, 15, 0, 0}
		case i == 16:
			return [4]byte{3, 0, 0, 0}
		}
		return [4]byte{15, 15, 0, 0}
	}), tieSeed(2), uint8(0))
	// The same on the left: strip 1's entries lie at x = 15, strip 0's
	// reach exactly 2/16 left of the item; the running maximum of XU at
	// strip 0's end sits on the window's edge.
	f.Add([]byte{15, 0, 0, 1}, leafBytes(20, func(i int) [4]byte {
		switch {
		case i < 15:
			return [4]byte{0, 15, 0, 0}
		case i == 15:
			return [4]byte{10, 0, 3, 0}
		}
		return [4]byte{15, 15, 0, 0}
	}), tieSeed(2), uint8(0))
	f.Fuzz(func(t *testing.T, rData, sData, seedData []byte, kByte uint8) {
		sn := fuzzLeaf(sData, 40, 0, 2) // even identifiers
		if len(sn.Entries) == 0 {
			return
		}
		checkLeafGroup(t, fuzzLeaf(rData, 24, 0, 1), []*rtree.Node{sn}, seedData, 1+int(kByte)%5)
	})
}

// fuzzGroup splits the entries data encodes (fuzzLeaf's four bytes each, at
// most 40) into 1 + cuts%4 S leaves of near-equal size, in order, as the
// pop order of one band.  Entry p of n has S id 2p, or 2(n-1-p) when cuts&4
// is set, so a tie's smaller identifier can sit in an earlier or a later
// leaf.
func fuzzGroup(data []byte, cuts uint8) []*rtree.Node {
	all := fuzzLeaf(data, 40, 0, 2)
	n := len(all.Entries)
	if cuts&4 != 0 {
		for p := range all.Entries {
			all.Entries[p].Data = int32(2 * (n - 1 - p))
		}
	}
	leaves := make([]*rtree.Node, min(1+int(cuts%4), n))
	for j := range leaves {
		leaves[j] = &rtree.Node{Entries: all.Entries[j*n/len(leaves) : (j+1)*n/len(leaves)]}
	}
	return leaves
}

// FuzzKNNLeafGroup holds the grouped kernel — each item meets the group's
// S leaves nearest first and stops at the first beyond its tau — to one
// plain product per leaf: from any heaps, both must arrive at the same K
// best per R item.
func FuzzKNNLeafGroup(f *testing.F) {
	// Two leaves at the same MBR distance 2/16 from the item, right and
	// left of it; the later leaf's candidate ties the earlier one's with a
	// smaller S id.
	f.Add([]byte{8, 8, 1, 1}, []byte{11, 8, 0, 0, 6, 8, 0, 0}, []byte{}, uint8(0), uint8(1|4))
	// Overlapping leaves: columns 4, 6, 8, 10 and 5, 7, 9, 11, one unit
	// wide, both leaves at distance zero from every item.
	f.Add([]byte{8, 8, 1, 1, 3, 8, 0, 0}, leafBytes(8, func(i int) [4]byte {
		return [4]byte{byte(4 + 2*(i%4) + i/4), 8, 1, byte(i % 2)}
	}), []byte{}, uint8(2), uint8(1))
	// K = 3, and the nearer leaf holds two entries: the heap fills only in
	// the second leaf, so its stop is not armed before it.
	f.Add([]byte{8, 8, 0, 0}, []byte{8, 9, 0, 0, 8, 12, 0, 0, 8, 13, 0, 0, 8, 14, 0, 0, 8, 15, 0, 0}, []byte{}, uint8(2), uint8(1))
	// The leaf at MBR distance 0 (the second, ids 2 and 4) leaves tau at
	// (2/16)²; the first leaf's MBR lies exactly 2/16 above the item and
	// holds id 0 at that distance.  A non-strict stop loses it.
	f.Add([]byte{8, 8, 1, 1}, []byte{8, 11, 0, 0, 11, 8, 0, 0, 0, 15, 0, 0}, []byte{}, uint8(0), uint8(1))
	// Four leaves of ten, ids descending, heaps pre-seeded.
	f.Add([]byte{7, 7, 1, 1, 2, 12, 0, 0, 13, 3, 2, 1}, leafBytes(40, func(i int) [4]byte {
		return [4]byte{byte(i * 7 % 16), byte(i * 5 % 16), byte(i % 3), byte(i % 2)}
	}), []byte{3, 5, 9}, uint8(3), uint8(3|4))
	f.Fuzz(func(t *testing.T, rData, sData, seedData []byte, kByte, cuts uint8) {
		sns := fuzzGroup(sData, cuts)
		if len(sns) == 0 {
			return
		}
		checkLeafGroup(t, fuzzLeaf(rData, 24, 0, 1), sns, seedData, 1+int(kByte)%5)
	})
}

// checkLeafGroup runs leafGroup over S leaves sns and the plain product over
// each of them in turn, both from the same pre-seeded heaps (odd S ids at
// lattice distances, the candidates earlier bands would have left), and
// fails unless every item keeps the same K best and the kernel tested no
// more pairs.  The node bound derived from the heaps must not be below any
// item's kth-best distance.
func checkLeafGroup(t *testing.T, rn *rtree.Node, sns []*rtree.Node, seedData []byte, k int) {
	t.Helper()
	if len(rn.Entries) == 0 {
		return
	}
	newState := func() *knnState {
		st := newKNNState(k, rn)
		var comps int64
		for j, b := range seedData {
			i := j % len(st.items)
			d := float64(b%8) / 16
			st.items[i].n = int32(offer(st.cands[i*k:(i+1)*k], int(st.items[i].n), nnCand{d2: d * d, sID: int32(2*j + 1)}, &comps))
		}
		return st
	}

	pairs := make([]knnPair, len(sns))
	for i, sn := range sns {
		pairs[i] = knnPair{rn: rn, sn: sn, seq: int64(i)}
	}
	got, want := newState(), newState()
	var local, product metrics.Local
	got.leafGroup(rn, 0, pairs, new(leafScratch), &local)
	for _, sn := range sns {
		want.productPair(rn, 0, sn, &product)
	}
	if local.PairsTested > product.PairsTested {
		t.Fatalf("kernel tested %d pairs of a %d product", local.PairsTested, product.PairsTested)
	}
	for i := range got.items {
		g, w := got.heap(i), want.heap(i)
		sortCands(g)
		sortCands(w)
		if len(g) != len(w) {
			t.Fatalf("item %d: %d candidates, product keeps %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("item %d neighbour %d: %v, product keeps %v\nkernel  %v\nproduct %v", i, j, g[j], w[j], g, w)
			}
		}
	}

	got = newState()
	got.leafGroup(rn, 0, pairs, new(leafScratch), &local)
	got.tighten(0, &local)
	for i := range got.items {
		if got.nodes[0].bound < got.tau(i) {
			t.Fatalf("leaf bound %g below item %d's tau %g", got.nodes[0].bound, i, got.tau(i))
		}
	}
}

// BenchmarkKNNJoin times the best-first kNN join (K = 4, the ledger's join
// options) on the shapes the ledger's kNN ops join: the serve-read and
// serve-churn daemons' R against their synthetic S, and the batch
// workload's uniform R against its holed S.  The nodes' orders are built by
// the first iteration and reused, as on a daemon's immutable epoch.
func BenchmarkKNNJoin(b *testing.B) {
	shapes := []struct {
		name  string
		build func(testing.TB) (*rtree.Tree, *rtree.Tree)
	}{
		{"serve-read", serveReadKNNPair},
		{"serve-churn", func(tb testing.TB) (*rtree.Tree, *rtree.Tree) {
			return daemonKNNPair(tb, 20000, 0.004, 10000, 0.005, 12)
		}},
		{"ledger-10000", func(tb testing.TB) (*rtree.Tree, *rtree.Tree) { return ledgerKNNPair(tb, 10000, 10000, 1) }},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			r, s := sh.build(b)
			opts := ledgerKNNOptions()
			b.ReportAllocs()
			var res *Result
			for b.Loop() {
				var err error
				if res, err = Join(r, s, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Metrics.PairsTested)/float64(r.Len()), "tested/item")
		})
	}
}
