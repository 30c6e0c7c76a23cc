package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/storage"
)

// treeContents returns the (rect, data) multiset of the tree's data entries,
// sorted canonically.
func treeContents(t *Tree) []Item {
	var out []Item
	t.Walk(func(n *Node) {
		if !n.IsLeaf() {
			return
		}
		for _, e := range n.Entries {
			out = append(out, Item{Rect: e.Rect, Data: e.Data})
		}
	})
	sortItems(out)
	return out
}

func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.Data != b.Data {
			return a.Data < b.Data
		}
		if a.Rect.XL != b.Rect.XL {
			return a.Rect.XL < b.Rect.XL
		}
		return a.Rect.YL < b.Rect.YL
	})
}

func itemsEqual(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Data != b[i].Data || !a[i].Rect.Equal(b[i].Rect) {
			return false
		}
	}
	return true
}

// TestInsertBufferIsPermutation is the core property (testing/quick over the
// batch size and seed): whatever order the buffer applies a staged batch in,
// the resulting tree holds exactly the staged multiset, passes the full
// structural validation, and reports consistent counters.
func TestInsertBufferIsPermutation(t *testing.T) {
	check := func(seed int64, n uint16, pageEights uint8) bool {
		count := int(n%600) + 20
		pageSize := (int(pageEights%3) + 1) * 8 * storage.EntrySize
		rng := rand.New(rand.NewSource(seed))
		items := randomItems(rng, count, 0.03)
		tr := MustNew(Options{PageSize: pageSize})
		buf := NewInsertBuffer(tr, 128)
		for _, it := range items {
			buf.Stage(it.Rect, it.Data)
		}
		buf.Flush()
		if buf.Len() != 0 || buf.Applied() != count || buf.Staged() != count {
			t.Logf("counters: len=%d applied=%d staged=%d want %d", buf.Len(), buf.Applied(), buf.Staged(), count)
			return false
		}
		if tr.Len() != count {
			t.Logf("tree holds %d entries, staged %d", tr.Len(), count)
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		want := append([]Item(nil), items...)
		sortItems(want)
		if !itemsEqual(treeContents(tr), want) {
			t.Log("tree contents are not the staged multiset")
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertBufferAutoFlush: staging past the capacity flushes automatically.
func TestInsertBufferAutoFlush(t *testing.T) {
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	buf := NewInsertBuffer(tr, 8)
	rng := rand.New(rand.NewSource(3))
	for i, it := range randomItems(rng, 20, 0.02) {
		buf.Stage(it.Rect, it.Data)
		if buf.Len() >= 8 {
			t.Fatalf("buffer holds %d items after stage %d, capacity 8", buf.Len(), i)
		}
	}
	if buf.Flushes() != 2 || tr.Len() != 16 {
		t.Fatalf("flushes=%d treeLen=%d, want 2 auto-flushes of 8", buf.Flushes(), tr.Len())
	}
	buf.Flush()
	if tr.Len() != 20 || buf.Len() != 0 {
		t.Fatalf("after final flush: treeLen=%d buffered=%d", tr.Len(), buf.Len())
	}
}

// TestInsertBufferHintHits: a spatially coherent batch must actually take the
// leaf-hint fast path — that is the whole point of the Hilbert ordering.
func TestInsertBufferHintHits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 4000, 0.002)
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	tr.InsertItemsBuffered(items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// InsertItemsBuffered hides its buffer; measure with an explicit one.
	tr2 := MustNew(Options{PageSize: storage.PageSize1K})
	buf := NewInsertBuffer(tr2, len(items))
	for _, it := range items {
		buf.Stage(it.Rect, it.Data)
	}
	buf.Flush()
	if buf.HintHits() == 0 {
		t.Fatal("no insert took the leaf-hint fast path on a Hilbert-sorted batch")
	}
	rate := float64(buf.HintHits()) / float64(buf.Applied())
	t.Logf("hint hit rate: %.2f (%d/%d)", rate, buf.HintHits(), buf.Applied())
	if rate < 0.10 {
		t.Errorf("hint hit rate %.2f below 10%%; the Hilbert order is not buying locality", rate)
	}
}

// TestInsertBufferSurvivesInterleavedMutations: direct tree mutations between
// flushes (including deletes that dissolve the hinted leaf) must not corrupt
// the tree — the mutation-epoch guard has to drop the stale hint.
func TestInsertBufferSurvivesInterleavedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := MustNew(Options{PageSize: 8 * storage.EntrySize})
	buf := NewInsertBuffer(tr, 32)
	var live []Item
	next := int32(0)
	for round := 0; round < 60; round++ {
		for i := 0; i < 24; i++ {
			it := randomItem(rng, next)
			next++
			buf.Stage(it.Rect, it.Data)
			live = append(live, it)
		}
		buf.Flush()
		// Aggressive interleaved deletes: enough to dissolve leaves (and with
		// a small page, often the one the buffer's hint points at).
		for i := 0; i < 16 && len(live) > 8; i++ {
			j := rng.Intn(len(live))
			it := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if !tr.Delete(it.Rect, it.Data) {
				t.Fatalf("round %d: delete of live item failed", round)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Len() != len(live) {
			t.Fatalf("round %d: tree holds %d, want %d", round, tr.Len(), len(live))
		}
	}
	want := append([]Item(nil), live...)
	sortItems(want)
	if !itemsEqual(treeContents(tr), want) {
		t.Fatal("tree contents diverged from the live set")
	}
}

// FuzzInsertBuffer drives a mixed op stream (stage / flush / plain insert /
// delete) decoded from fuzz bytes and checks the invariants after every op,
// and the contents and the catalog at the end.  Every op starts from a
// ready tree, whose nodes all carry an xl-order, and must leave no stale one
// behind (CheckInvariants); at every explicit flush and at the end the tree
// is made ready again and the sweep joins over it must still match the
// nested loop.
func FuzzInsertBuffer(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 0, 4, 5})
	f.Add(int64(42), []byte{2, 2, 2, 1, 0, 3, 3, 3, 3, 1})
	f.Add(int64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		rng := rand.New(rand.NewSource(seed))
		tr := MustNew(Options{PageSize: 8 * storage.EntrySize})
		buf := NewInsertBuffer(tr, 16)
		var live, staged []Item
		next := int32(0)
		for i, op := range ops {
			tr.makeReady()
			switch op % 4 {
			case 0: // stage
				it := randomItem(rng, next)
				next++
				staged = append(staged, it)
				buf.Stage(it.Rect, it.Data)
				if buf.Len() == 0 { // auto-flush fired
					live = append(live, staged...)
					staged = staged[:0]
				}
			case 1: // flush
				buf.Flush()
				live = append(live, staged...)
				staged = staged[:0]
				if i < 64 {
					tr.makeReady()
					JoinCheck(t, tr)
				}
			case 2: // plain insert, bypassing the buffer
				it := randomItem(rng, next)
				next++
				tr.Insert(it.Rect, it.Data)
				live = append(live, it)
			default: // delete a live item
				if len(live) == 0 {
					continue
				}
				j := rng.Intn(len(live))
				it := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if !tr.Delete(it.Rect, it.Data) {
					t.Fatal("delete of live item failed")
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d): %v", i, op%4, err)
			}
		}
		tr.makeReady()
		buf.Flush()
		live = append(live, staged...)
		tr.makeReady()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		JoinCheck(t, tr)
		if tr.Len() != len(live) {
			t.Fatalf("tree holds %d, want %d", tr.Len(), len(live))
		}
		want := append([]Item(nil), live...)
		sortItems(want)
		if !itemsEqual(treeContents(tr), want) {
			t.Fatal("tree contents diverged from the op stream")
		}
		// The catalog equals the tree after it all.
		checkCatalog(t, tr, "fuzz")
	})
}

// TestInsertBufferStagedDeleteInvalidatesHint is the regression test for the
// mixed-batch hint hazard: a staged delete that lands in the hinted leaf must
// invalidate the hint before the next buffered insert of the same batch, or
// that insert would append into a leaf the delete just shrank (or dissolved)
// without re-checking it.  The delete goes through Tree.Delete, which bumps
// the mutation counter the hint is epoch-checked against — this test pins
// that the check actually fires inside a single flush.
func TestInsertBufferStagedDeleteInvalidatesHint(t *testing.T) {
	tr := MustNew(smallOpts()) // M = 8, hintFill = 7
	buf := NewInsertBuffer(tr, 64)
	rect := geom.Rect{XL: 0.4, YL: 0.4, XU: 0.6, YU: 0.6}

	// Warm the hint: identical rectangles, so after the first full descent the
	// remaining four ride the fast path into one leaf.
	for i := int32(0); i < 5; i++ {
		buf.Stage(rect, i)
	}
	buf.Flush()
	if buf.HintHits() != 4 {
		t.Fatalf("warmup: %d hint hits, want 4", buf.HintHits())
	}
	if buf.hint == nil || buf.hintEpoch != tr.muts {
		t.Fatal("warmup left no hot hint — test premise broken")
	}

	// One mixed batch: a delete of an entry in the hinted leaf, then an insert
	// the stale hint would accept (covered by the hint MBR, leaf has room).
	// Identical centres give equal Hilbert keys, and the stable sort keeps
	// staging order, so the delete is applied first.
	buf.StageDelete(rect, 0)
	buf.Stage(rect, 100)
	buf.Flush()

	if buf.DeletesApplied() != 1 || buf.DeleteMisses() != 0 {
		t.Fatalf("delete counters: applied=%d misses=%d, want 1/0",
			buf.DeletesApplied(), buf.DeleteMisses())
	}
	// The insert after the delete must NOT have taken the hint path: the
	// delete advanced the mutation epoch, so the hint was dropped.
	if buf.HintHits() != 4 {
		t.Fatalf("insert after staged delete took the stale hint path: %d hint hits, want still 4", buf.HintHits())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := []Item{{rect, 1}, {rect, 2}, {rect, 3}, {rect, 4}, {rect, 100}}
	sortItems(want)
	if !itemsEqual(treeContents(tr), want) {
		t.Fatal("mixed batch left wrong contents")
	}
}

// TestInsertBufferHintKeepsZeroSigns is the regression test for the leaf
// hint's signed-zero corner: a rectangle whose corner is -0 lies inside a
// leaf whose MBR has +0 there (Contains compares values), but appending it
// turns the leaf's MBR corner to -0 while the parent's rectangle keeps +0.
// The fast path must leave such a rectangle to the full descent, so every
// directory rectangle stays its child's MBR bit for bit.
func TestInsertBufferHintKeepsZeroSigns(t *testing.T) {
	tr := MustNew(smallOpts())
	tr.InsertItems(randomItems(rand.New(rand.NewSource(43)), 60, 0.05))
	buf := NewInsertBuffer(tr, 0)
	plus := geom.Rect{XL: 0, YL: 0.1, XU: 0.5, YU: 0.2}
	minus := plus
	minus.XL = math.Copysign(0, -1)

	buf.Stage(plus, 1000)
	buf.Flush()
	if buf.hint == nil || buf.hintEpoch != tr.muts || len(buf.hint.Entries) >= buf.hintFill ||
		!buf.hintMBR.Contains(minus) || math.Signbit(buf.hintMBR.XL) {
		t.Fatal("the +0 insert left no hot hint with room and a +0 corner: test premise broken")
	}
	buf.Stage(minus, 1001)
	buf.Flush()

	bits := func(r geom.Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.XL), math.Float64bits(r.YL), math.Float64bits(r.XU), math.Float64bits(r.YU)}
	}
	tr.Walk(func(n *Node) {
		for _, e := range n.Entries {
			if e.Child != nil && bits(e.Rect) != bits(e.Child.MBR()) {
				t.Errorf("node %d: directory rectangle %v has bits %x, its child's MBR %x",
					n.ID, e.Rect, bits(e.Rect), bits(e.Child.MBR()))
			}
		}
	})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 62 {
		t.Fatalf("Len = %d, want 62", tr.Len())
	}
}

// TestInsertBufferMixedBatches drives interleaved insert/delete batches
// (EMBANKS-style mixed rounds) against a reference model: every flush applies
// one Hilbert-ordered permutation of the staged mutations, deliberate deletes
// of absent entries are counted as misses, and the counter identity
// StagedDeletes == DeletesApplied + DeleteMisses holds throughout.
func TestInsertBufferMixedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := MustNew(Options{PageSize: 8 * storage.EntrySize})
	buf := NewInsertBuffer(tr, 256)
	var live []Item // applied in earlier rounds and still present
	next := int32(0)
	wantMisses := 0
	for round := 0; round < 40; round++ {
		// Interleave: stage inserts and deletes in alternating runs so the
		// sorted batch genuinely mixes the two op kinds.  Deletes only target
		// entries applied in earlier rounds — a delete of an insert staged in
		// the same batch could sort before it and legitimately miss.
		var fresh []Item
		for i := 0; i < 24; i++ {
			it := randomItem(rng, next)
			next++
			buf.Stage(it.Rect, it.Data)
			fresh = append(fresh, it)
			if i%2 == 1 && len(live) > 12 {
				j := rng.Intn(len(live))
				buf.StageDelete(live[j].Rect, live[j].Data)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		// One guaranteed miss per round: an identifier never inserted.
		buf.StageDelete(randomItem(rng, -1-int32(round)).Rect, -1-int32(round))
		wantMisses++
		buf.Flush()
		live = append(live, fresh...)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Len() != len(live) {
			t.Fatalf("round %d: tree holds %d, model %d", round, tr.Len(), len(live))
		}
	}
	if buf.DeleteMisses() != wantMisses {
		t.Fatalf("%d delete misses, want %d", buf.DeleteMisses(), wantMisses)
	}
	if buf.StagedDeletes() != buf.DeletesApplied()+buf.DeleteMisses() {
		t.Fatalf("counter identity broken: staged=%d applied=%d misses=%d",
			buf.StagedDeletes(), buf.DeletesApplied(), buf.DeleteMisses())
	}
	want := append([]Item(nil), live...)
	sortItems(want)
	if !itemsEqual(treeContents(tr), want) {
		t.Fatal("tree contents diverged from the model after mixed batches")
	}
}

// BenchmarkInsertBuffered compares plain dynamic insertion with the
// Hilbert-buffered path at the package level (the end-to-end build benchmark
// lives in the repo root's bench_test.go).
func BenchmarkInsertBuffered(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	items := randomItems(rng, 10000, 0.01)
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := MustNew(Options{PageSize: storage.PageSize2K})
			tr.InsertItems(items)
		}
	})
	b.Run("hilbert-buffered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := MustNew(Options{PageSize: storage.PageSize2K})
			tr.InsertItemsBuffered(items)
		}
	})
}

// TestInsertBufferHintFillTarget pins the fill target of the leaf-hint fast
// path: the hint appends into a leaf only while it holds fewer than
// hintFill entries (90% of M), so of eight identical inserts into a leaf of
// M = 8 the first descends, the next six ride the hint and the eighth takes
// a full descent again.  At every capacity the target lies between the
// minimum fill m and M, so the fast path leaves a valid leaf with room.
func TestInsertBufferHintFillTarget(t *testing.T) {
	tr := MustNew(smallOpts())
	b := NewInsertBuffer(tr, 8)
	rect := geom.Rect{XL: 0.4, YL: 0.4, XU: 0.6, YU: 0.6}
	for i := 0; i < 8; i++ {
		b.Stage(rect, int32(i))
	}
	b.Flush()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.HintHits() != 6 {
		t.Errorf("%d hint hits, want 6", b.HintHits())
	}
	for capacity := 4; capacity <= 204; capacity++ {
		tr := MustNew(Options{PageSize: capacity * storage.EntrySize})
		if fill := NewInsertBuffer(tr, 1).hintFill; fill < tr.minEnt || fill >= tr.maxEnt {
			t.Errorf("M = %d: hintFill %d outside [m, M) = [%d, %d)", tr.maxEnt, fill, tr.minEnt, tr.maxEnt)
		}
	}
}

// BenchmarkServedIngest builds a daemon's R the way POST /update does:
// uniform rectangles, float32-exact like the ledger's, staged into an
// insertion buffer over a 4 KiB-page tree in 20 batches, each flushed and
// published as a snapshot (the writer's round).  "churn" is serve-churn's R
// (20 000 rectangles of side up to 0.004), "read" serve-read's (10 000 of
// side up to 0.02).
func BenchmarkServedIngest(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		side float64
	}{{"churn", 20000, 0.004}, {"read", 10000, 0.02}} {
		rng := rand.New(rand.NewSource(1))
		f32 := func(v float64) float64 { return float64(float32(v)) }
		items := make([]Item, c.n)
		for i := range items {
			w, h := c.side*(1-rng.Float64()), c.side*(1-rng.Float64())
			x, y := rng.Float64()*(1-c.side), rng.Float64()*(1-c.side)
			items[i] = Item{Rect: geom.Rect{XL: f32(x), YL: f32(y), XU: f32(x + w), YU: f32(y + h)}, Data: int32(i)}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := MustNew(Options{PageSize: storage.PageSize4K})
				buf := NewInsertBuffer(tr, 0)
				per := len(items) / 20
				for k := 0; k < len(items); k += per {
					for _, it := range items[k:min(k+per, len(items))] {
						buf.Stage(it.Rect, it.Data)
					}
					buf.Flush()
					tr.Snapshot()
				}
			}
		})
	}
}
