package server

import (
	"context"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// churnOps draws n inserts of rectangles with sides up to side, numbered
// from base.
func churnOps(rng *rand.Rand, n int, base int32, side float64) []Op {
	ops := make([]Op, n)
	for i := range ops {
		x, y := rng.Float64(), rng.Float64()
		ops[i] = Op{
			Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*side, YU: y + rng.Float64()*side},
			Data: base + int32(i),
		}
	}
	return ops
}

// BenchmarkChurnRound times one writer round in the shape of the ledger's
// serve-churn workload: a store of 4 KiB pages holding 20 000 rectangles
// with sides up to 0.004, ingested through Update and Round the way
// spatialjoind builds it, then per iteration 100 deletes of live items and
// 100 fresh inserts staged with Update and applied, committed and published
// by Round.
func BenchmarkChurnRound(b *testing.B) {
	rng := rand.New(rand.NewSource(71))
	opts := rtree.Options{PageSize: storage.PageSize4K}
	p, err := storage.OpenPager(storage.NewMemVFS(), "r.db", storage.PageSize4K, storage.PagerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	store, err := rtree.NewTreeStore(rtree.MustNew(opts), p)
	if err != nil {
		b.Fatal(err)
	}
	sTree, err := rtree.BulkLoadSTR(opts, genItems(rng, 1000, 1_000_000, 0.005))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Store: store, S: sTree, CacheBytes: 128 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	live := churnOps(rng, 20000, 0, 0.004)
	if err := srv.Update(live); err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Round(); err != nil {
		b.Fatal(err)
	}
	next := int32(len(live))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		round := make([]Op, 0, 200)
		for k := 0; k < 100; k++ {
			j := rng.Intn(len(live))
			round = append(round, Op{Rect: live[j].Rect, Data: live[j].Data, Delete: true})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		fresh := churnOps(rng, 100, next, 0.004)
		next += int32(len(fresh))
		round = append(round, fresh...)
		live = append(live, fresh...)
		b.StartTimer()

		if err := srv.Update(round); err != nil {
			b.Fatal(err)
		}
		st, err := srv.Round()
		if err != nil {
			b.Fatal(err)
		}
		if st.Applied != len(round) {
			b.Fatalf("round applied %d of %d ops", st.Applied, len(round))
		}
	}
}

// newServedJoin builds the server of BenchmarkServedJoin: R holds 20 000
// rectangles with sides up to 0.004 in a store of 4 KiB pages on an OS file,
// ingested through Update and Round; S holds 10 000 squares of side 0.005;
// the epoch's page cache is 128 KiB, a quarter of R's pages.  It returns
// the server after one join, and the pager under R.
func newServedJoin(tb testing.TB) (*Server, *storage.Pager) {
	tb.Helper()
	rng := rand.New(rand.NewSource(39))
	opts := rtree.Options{PageSize: storage.PageSize4K}
	p, err := storage.OpenPager(storage.OSVFS{}, filepath.Join(tb.TempDir(), "r.db"), storage.PageSize4K, storage.PagerOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	store, err := rtree.NewTreeStore(rtree.MustNew(opts), p)
	if err != nil {
		tb.Fatal(err)
	}
	sTree, err := rtree.BulkLoadSTR(opts, genItems(rng, 10000, 1_000_000, 0.005))
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Store: store, S: sTree, CacheBytes: 128 << 10, CostBudget: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	if err := srv.Update(churnOps(rng, 20000, 0, 0.004)); err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.Round(); err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.Join(context.Background(), JoinRequest{}); err != nil {
		tb.Fatal(err)
	}
	return srv, p
}

// BenchmarkServedJoin times one intersection join served from a published
// epoch in the shape of the ledger's serve-churn workload (newServedJoin):
// the page cache holds a quarter of R's pages, so about half of the join's
// counted misses are physical reads.  It reports them per op.
func BenchmarkServedJoin(b *testing.B) {
	srv, p := newServedJoin(b)
	ctx := context.Background()
	reads := p.Stats().Reads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Join(ctx, JoinRequest{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.Stats().Reads-reads)/float64(b.N), "reads/op")
}

// TestWarmServedJoinBuildsNoBuffers: a warm join in BenchmarkServedJoin's
// shape allocates no tracker, no LRU and no read frame — the sequential
// join takes its tracker, with its LRU and frame, from a pool.  Every
// allocation of the measured joins is profiled, and those made under the
// three constructors counted.
func TestWarmServedJoinBuildsNoBuffers(t *testing.T) {
	srv, p := newServedJoin(t)
	ctx := context.Background()
	const joins = 20
	run := func() {
		for range joins {
			if _, err := srv.Join(ctx, JoinRequest{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The pool holds up to 16 trackers and sequential joins take them in
	// turn; a tracker last used on smaller pages grows its frame once.
	run()
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before, reads := bufferAllocs(), p.Stats().Reads
	run()
	if p.Stats().Reads == reads {
		t.Fatal("the joins read no page: the read frame was never needed")
	}
	if n := bufferAllocs() - before; n != 0 {
		t.Errorf("%d warm joins made %d allocations building a tracker, an LRU or a read frame", joins, n)
	}
}

// bufferAllocs returns the allocations the memory profile attributes to the
// constructors of a join's tracker: buffer.NewTracker, buffer.NewLRU and
// the read frame Tracker.SetPageReader sizes.  A garbage collection
// publishes the allocations made before it; the second leaves a margin.
func bufferAllocs() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:min(n, len(recs))]
	}
	var total int64
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			switch f.Function {
			case "repro/internal/buffer.NewTracker", "repro/internal/buffer.NewLRU", "repro/internal/buffer.(*Tracker).SetPageReader":
				total += recs[i].AllocObjects
				more = false
			}
			if !more {
				break
			}
		}
	}
	return total
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkPairEncoder encodes a streamed reply of 40 000 pairs, with ids
// in the ledger's ranges, the way the /join handler does: pair by pair,
// then close; the writer goroutine encodes the blocks.
func BenchmarkPairEncoder(b *testing.B) {
	rng := rand.New(rand.NewSource(73))
	pairs := make([]join.Pair, 40000)
	for i := range pairs {
		pairs[i] = join.Pair{R: rng.Int31n(20000), S: 1_000_000 + rng.Int31n(20000)}
	}
	w := &discardWriter{header: http.Header{}}
	b.SetBytes(int64(len(pairs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := newPairEncoder(w, WireChunk)
		for _, p := range pairs {
			e.pair(p)
		}
		e.close(1, len(pairs), 0)
		e.release()
	}
}
