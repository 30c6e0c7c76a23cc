package sweep

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
)

// TestAppendPairsMatchesSortedIntersectionTest asserts that the
// allocation-free batched sweep produces exactly the pairs, pair order and
// comparison count of the callback-based reference implementation.
func TestAppendPairsMatchesSortedIntersectionTest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		rseq := randomRects(rng, rng.Intn(60), 0.2)
		sseq := randomRects(rng, rng.Intn(60), 0.2)
		SortByXL(rseq, metrics.NewCollector())
		SortByXL(sseq, metrics.NewCollector())

		checkAppendPairs(t, rseq, sseq, trial%3)
	}
}

// TestAppendPairsReusesBuffer asserts the append contract: passing the
// previous result truncated to zero length must reuse its backing array.
func TestAppendPairsReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rseq := randomRects(rng, 40, 0.2)
	sseq := randomRects(rng, 40, 0.2)
	SortByXL(rseq, metrics.NewCollector())
	SortByXL(sseq, metrics.NewCollector())

	buf := AppendPairs(rseq, sseq, nil, nil)
	if cap(buf) == 0 {
		t.Skip("no intersecting pairs in random data")
	}
	again := AppendPairs(rseq, sseq, nil, buf[:0])
	if &again[0] != &buf[0] {
		t.Fatal("AppendPairs must append into the provided buffer")
	}
}

// gridRects decodes four bytes per rectangle onto a coarse grid, so equal
// lower x-corners, zero-width and zero-height rectangles are the rule, and
// returns them sorted by lower x-corner.
func gridRects(data []byte) []geom.Rect {
	rects := make([]geom.Rect, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		xl, yl := float64(data[0]%32), float64(data[2]%32)
		rects = append(rects, geom.Rect{XL: xl, YL: yl, XU: xl + float64(data[1]%8), YU: yl + float64(data[3]%8)})
	}
	SortByXL(rects, metrics.NewCollector())
	return rects
}

// checkAppendPairs fails on any difference between AppendPairs and the
// callback reference in the pairs, their order or the comparisons charged.
// The buffer handed in holds a prefix that must survive and has room for
// spare more pairs, so growth happens at the start, mid-run or never.
func checkAppendPairs(t testing.TB, rseq, sseq []geom.Rect, spare int) {
	t.Helper()
	var want []Pair
	ref := metrics.NewCollector()
	SortedIntersectionTest(rseq, sseq, ref, func(p Pair) { want = append(want, p) })

	prefix := Pair{R: -7, S: -9}
	buf := make([]Pair, 1, 1+spare)
	buf[0] = prefix
	var local metrics.Local
	got := AppendPairs(rseq, sseq, &local, buf)
	if local.Comparisons != ref.Comparisons() {
		t.Fatalf("charged %d comparisons, reference %d (|R|=%d |S|=%d)", local.Comparisons, ref.Comparisons(), len(rseq), len(sseq))
	}
	if got[0] != prefix {
		t.Fatalf("prefix overwritten with %v", got[0])
	}
	got = got[1:]
	if len(got) != len(want) {
		t.Fatalf("%d pairs, reference %d (|R|=%d |S|=%d)", len(got), len(want), len(rseq), len(sseq))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d is %v, reference %v (order must match)", i, got[i], want[i])
		}
	}
}

// FuzzAppendPairs decodes two sequences and a buffer size from the fuzz
// bytes.
func FuzzAppendPairs(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0))
	// One empty side.
	f.Add([]byte{5, 2, 5, 2, 7, 1, 7, 1}, []byte{}, byte(3))
	f.Add([]byte{}, []byte{5, 2, 5, 2}, byte(0))
	// Duplicate lower x-corners on both sides: the tie goes to S.
	f.Add([]byte{5, 2, 5, 2, 5, 3, 1, 7, 5, 0, 6, 0}, []byte{5, 1, 4, 3, 5, 7, 0, 7, 5, 2, 5, 2}, byte(0))
	// Zero-width and zero-height rectangles touching in a point.
	f.Add([]byte{4, 0, 4, 0, 4, 0, 6, 0, 9, 0, 2, 5}, []byte{4, 0, 4, 0, 2, 2, 4, 0, 9, 0, 7, 0}, byte(1))
	// Fully nested rectangles: every walk runs to the end of the other side.
	f.Add([]byte{0, 7, 0, 7, 1, 5, 1, 5, 2, 3, 2, 3, 3, 1, 3, 1}, []byte{0, 7, 0, 7, 1, 5, 1, 5, 2, 3, 2, 3}, byte(2))
	// Overlapping in x, disjoint in y on either side.
	f.Add([]byte{1, 7, 0, 1, 2, 7, 20, 1}, []byte{1, 7, 10, 1, 3, 7, 0, 0}, byte(200))
	f.Fuzz(func(t *testing.T, r, s []byte, spare byte) {
		if len(r) > 4*300 {
			r = r[:4*300]
		}
		if len(s) > 4*300 {
			s = s[:4*300]
		}
		checkAppendPairs(t, gridRects(r), gridRects(s), int(spare))
	})
}

// TestAppendPairsGrid runs the fuzz check over random grid sequences of up
// to 300 rectangles a side, the sizes the fuzz seeds do not reach.
func TestAppendPairsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		r, s := make([]byte, 4*rng.Intn(300)), make([]byte, 4*rng.Intn(300))
		rng.Read(r)
		rng.Read(s)
		checkAppendPairs(t, gridRects(r), gridRects(s), rng.Intn(64))
	}
}

// TestAppendPairsWarmBufferDoesNotAllocate pins what BenchmarkSweepAppendPairs
// only reports: over the same input, a buffer a previous call returned is
// large enough for every walk's reservation.
func TestAppendPairsWarmBufferDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rseq := randomRects(rng, 204, 0.2)
	sseq := randomRects(rng, 204, 0.2)
	SortByXL(rseq, metrics.NewCollector())
	SortByXL(sseq, metrics.NewCollector())
	var local metrics.Local
	buf := AppendPairs(rseq, sseq, &local, nil)
	if len(buf) == 0 {
		t.Fatal("no pairs: the test would prove nothing")
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf = AppendPairs(rseq, sseq, &local, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendPairs allocated %.0f times per run on a warm buffer", allocs)
	}
}
