package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/sweep"
	"repro/internal/zorder"
)

// Micro-loops: the bottom rungs of the layer ladder.  Each times one public
// function of a leaf package over seeded inputs, long enough (2^20
// calls at full scale) that the clock's resolution does not matter, and reports
// the mean per call; they run the same way on every workload, so their
// numbers move only when that package's code does.

// sink keeps the compiler from discarding the measured calls.
var sink int

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func microLoops(seed int64, calls int, l *ledger, tr *tracer) {
	rng := rand.New(rand.NewSource(seed ^ 0x6d6963726f))

	// geom: rectangle pairs of which roughly half intersect.
	const nPairs = 4096
	a, b := make([]geom.Rect, nPairs), make([]geom.Rect, nPairs)
	for i := range a {
		a[i] = uniformRect(rng, 0.5)
		b[i] = uniformRect(rng, 0.5)
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		if a[i%nPairs].Intersects(b[i%nPairs]) {
			sink++
		}
	}
	end := time.Now()
	tr.add("geom.Rect.Intersects", "micro", calls, start, end)
	l.set("geom.intersects_ns_per_op", float64(end.Sub(start).Nanoseconds())/float64(calls), "ns")

	start = time.Now()
	var acc float64
	for i := 0; i < calls; i++ {
		d, _ := geom.RectDistSquaredCost(a[i%nPairs], b[i%nPairs])
		acc += d
	}
	end = time.Now()
	if acc > 0 {
		sink++
	}
	tr.add("geom.RectDistSquaredCost", "micro", calls, start, end)
	l.set("geom.rectdist_ns_per_op", float64(end.Sub(start).Nanoseconds())/float64(calls), "ns")

	// sweep: two node-sized sequences (a 4 KiB page holds 204 entries)
	// sorted by lower x, as the join hands them to AppendPairs.
	nodeSize := storage.CapacityForPage(storage.PageSize4K)
	rseq, sseq := make([]geom.Rect, nodeSize), make([]geom.Rect, nodeSize)
	for i := range rseq {
		rseq[i] = uniformRect(rng, 0.05)
		sseq[i] = uniformRect(rng, 0.05)
	}
	sort.Slice(rseq, func(i, j int) bool { return rseq[i].XL < rseq[j].XL })
	sort.Slice(sseq, func(i, j int) bool { return sseq[i].XL < sseq[j].XL })
	out := sweep.AppendPairs(rseq, sseq, nil, nil) // sizes the output slice
	reps := calls / (2 * nodeSize)
	before := mallocs()
	start = time.Now()
	for i := 0; i < reps; i++ {
		out = sweep.AppendPairs(rseq, sseq, nil, out[:0])
	}
	end = time.Now()
	after := mallocs()
	sink += len(out)
	tr.add("sweep.AppendPairs", "micro", reps, start, end)
	l.set("sweep.append_pairs_ns_per_rect", float64(end.Sub(start).Nanoseconds())/float64(reps*2*nodeSize), "ns")
	l.set("sweep.append_pairs_allocs_per_op", float64(after-before)/float64(reps), "count")

	// buffer: a counted LRU of 32 frames under a skewed reference string
	// over 128 pages, and the byte cache under the same string.
	const pages, frames = 128, 32
	refs := make([]storage.PageID, 8192)
	for i := range refs {
		refs[i] = storage.PageID(1 + int(float64(pages)*rng.Float64()*rng.Float64()))
	}
	tracker := buffer.NewTracker(buffer.NewLRU(frames), metrics.NewCollector(), storage.PageSize4K, false)
	start = time.Now()
	for i := 0; i < calls; i++ {
		if tracker.Access(1, 0, refs[i%len(refs)]) {
			sink++
		}
	}
	end = time.Now()
	tr.add("buffer.Tracker.Access", "micro", calls, start, end)
	l.set("buffer.tracker_access_ns_per_op", float64(end.Sub(start).Nanoseconds())/float64(calls), "ns")

	cache := buffer.NewPageCache(frames)
	page := make([]byte, storage.PageSize4K)
	start = time.Now()
	for i := 0; i < calls; i++ {
		key := buffer.FrameKey{Tree: 1, Page: refs[i%len(refs)]}
		if _, ok := cache.Get(key); !ok {
			cache.Put(key, page)
		}
	}
	end = time.Now()
	tr.add("buffer.PageCache.Get", "micro", calls, start, end)
	l.set("buffer.pagecache_get_ns_per_op", float64(end.Sub(start).Nanoseconds())/float64(calls), "ns")

	// zorder: the Hilbert key the router and the shards place rectangles by.
	pts := make([]geom.Point, nPairs)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	world := geom.WorldRect()
	var keys uint64
	start = time.Now()
	for i := 0; i < calls; i++ {
		keys += zorder.HilbertKey(pts[i%nPairs], world)
	}
	end = time.Now()
	if keys > 0 {
		sink++
	}
	tr.add("zorder.HilbertKey", "micro", calls, start, end)
	l.set("zorder.hilbert_key_ns_per_op", float64(end.Sub(start).Nanoseconds())/float64(calls), "ns")
}

// microTree times the two ways the repository builds a tree from the
// workload's own R relation: the STR bulk load (median of three) and the
// Hilbert-buffered dynamic insert the server's writer uses, the latter over
// at most 20 000 rectangles so it stays a micro-measurement.
func microTree(items []rtree.Item, l *ledger, tr *tracer) error {
	opts := rtree.Options{PageSize: storage.PageSize4K}
	var loads []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		t, err := rtree.BulkLoadSTR(opts, items)
		end := time.Now()
		if err != nil {
			return err
		}
		sink += t.Len()
		tr.add("rtree.BulkLoadSTR", "micro", i, start, end)
		loads = append(loads, ms(end.Sub(start)))
	}
	l.set("rtree.bulkload_str_ms", median(loads), "ms")

	if len(items) > 20000 {
		items = items[:20000]
	}
	t, err := rtree.New(opts)
	if err != nil {
		return err
	}
	buf := rtree.NewInsertBuffer(t, 0)
	start := time.Now()
	for _, it := range items {
		buf.Stage(it.Rect, it.Data)
	}
	buf.Flush()
	end := time.Now()
	tr.add("rtree.InsertBuffer", "micro", len(items), start, end)
	l.set("rtree.insert_buffered_us_per_op", us(end.Sub(start))/float64(len(items)), "us")
	l.set("rtree.hint_hit_rate", float64(buf.HintHits())/float64(max(buf.Applied(), 1)), "ratio")
	return nil
}
