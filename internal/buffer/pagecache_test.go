package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// payloadReader serves deterministic per-page payloads and counts reads.
type payloadReader struct {
	reads int
}

func (r *payloadReader) ReadPage(id storage.PageID, _ []byte) ([]byte, error) {
	r.reads++
	return []byte(fmt.Sprintf("page-%d", id)), nil
}

// TestPageCacheBasics: put/get round trip, LRU eviction at the page budget,
// invalidation, and the stats counters.
func TestPageCacheBasics(t *testing.T) {
	c := NewPageCache(2)
	k1 := FrameKey{Tree: 1, Page: 1}
	k2 := FrameKey{Tree: 1, Page: 2}
	k3 := FrameKey{Tree: 1, Page: 3}

	c.Put(k1, []byte("one"))
	c.Put(k2, []byte("two"))
	if got, ok := c.Get(k1); !ok || !bytes.Equal(got, []byte("one")) {
		t.Fatalf("get k1 = %q, %v", got, ok)
	}
	c.Put(k3, []byte("three")) // evicts k2 (k1 was just touched)
	if _, ok := c.Get(k2); ok {
		t.Fatal("k2 survived eviction past the budget")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("k1 evicted although most recently used")
	}
	c.Invalidate(k1)
	if _, ok := c.Get(k1); ok {
		t.Fatal("k1 served after invalidation")
	}
	st := c.Stats()
	if st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v: want capacity 2, 1 eviction", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats %+v: hits and misses must both have counted", st)
	}

	// The cached payload is a private copy: mutating the source buffer after
	// Put must not corrupt the cache.
	src := []byte("mutable")
	c.Put(k2, src)
	src[0] = 'X'
	if got, _ := c.Get(k2); !bytes.Equal(got, []byte("mutable")) {
		t.Fatalf("cache shares the caller's buffer: %q", got)
	}

	// Zero capacity disables caching.
	z := NewPageCache(0)
	z.Put(k1, []byte("x"))
	if _, ok := z.Get(k1); ok {
		t.Fatal("zero-capacity cache stored a page")
	}
}

// TestPageCacheRecyclesEvictedFrames: a full cache admits a page into the
// frame it evicts, and a recycled frame never changes the bytes of a live
// entry — including after re-Puts that shrink or grow a payload.  A model of
// the cache's LRU contents is checked after every Put.
func TestPageCacheRecyclesEvictedFrames(t *testing.T) {
	const capacity = 4
	c := NewPageCache(capacity)
	payload := func(page, gen, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(page*31 + gen*7 + i)
		}
		return b
	}
	for p := 0; p < capacity; p++ {
		c.Put(FrameKey{Tree: 1, Page: storage.PageID(p)}, payload(p, 0, 64))
	}
	oldest, _ := c.Get(FrameKey{Tree: 1, Page: 0})
	for p := 1; p < capacity; p++ {
		c.Get(FrameKey{Tree: 1, Page: storage.PageID(p)}) // page 0 is now least recent
	}
	c.Put(FrameKey{Tree: 1, Page: 9}, payload(9, 0, 64))
	if got, ok := c.Get(FrameKey{Tree: 1, Page: 9}); !ok || &got[0] != &oldest[0] {
		t.Fatal("the admitted page did not reuse the evicted page's frame")
	}

	rng := rand.New(rand.NewSource(39))
	model := map[FrameKey][]byte{}
	var order []FrameKey // least recent first
	touch := func(k FrameKey) {
		for i, o := range order {
			if o == k {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append(order, k)
	}
	c = NewPageCache(capacity)
	for step := 0; step < 2000; step++ {
		k := FrameKey{Tree: 1 + rng.Intn(2), Page: storage.PageID(rng.Intn(7))}
		// Payload lengths vary, so a re-Put or a recycled frame is sometimes
		// shorter and sometimes longer than the bytes it replaces.
		data := payload(int(k.Page), step, 1+rng.Intn(80))
		c.Put(k, data)
		if _, ok := model[k]; !ok && len(model) == capacity {
			delete(model, order[0])
			order = order[1:]
		}
		model[k] = data
		touch(k)
		for mk, want := range model {
			got, ok := c.Get(mk)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("step %d: page %v holds %v (present %v), want %v", step, mk, got, ok, want)
			}
		}
		// The Gets above refreshed every live page; replay the model's order
		// so the cache's recency matches it again.
		for _, o := range order {
			c.Get(o)
		}
	}
	if st := c.Stats(); st.Pages != capacity {
		t.Fatalf("%d pages cached, want %d", st.Pages, capacity)
	}
}

// TestTrackerPageCacheServesMisses pins the satellite contract: with a page
// cache attached, a counted miss whose frame is cached performs no physical
// read — only cold misses reach the pager — while the counted disk reads
// (the simulation's I/O measure) are unchanged.
func TestTrackerPageCacheServesMisses(t *testing.T) {
	m := metrics.NewCollector()
	// Counted LRU of 1 page: alternating accesses to two pages are counted
	// misses every time.
	tr := NewTracker(NewLRU(1), m, 1024, false)
	r := &payloadReader{}
	tr.SetPageReader(1, r)
	tr.SetPageCache(NewPageCache(16))

	for i := 0; i < 10; i++ {
		tr.Access(1, 0, 7)
		tr.Access(1, 0, 8)
	}
	if got := m.Snapshot().DiskReads; got != 20 {
		t.Fatalf("counted %d disk reads, want 20 (cache must not change counting)", got)
	}
	if r.reads != 2 {
		t.Fatalf("%d physical reads, want 2: the cache must serve repeated misses", r.reads)
	}
	st := tr.PageCache().Stats()
	if st.Hits != 18 || st.Misses != 2 {
		t.Fatalf("cache stats %+v, want 18 hits / 2 misses", st)
	}

	// Invalidation punches through to the pager again.
	tr.PageCache().Invalidate(FrameKey{Tree: 1, Page: 7})
	tr.Access(1, 0, 7)
	if r.reads != 3 {
		t.Fatalf("%d physical reads after invalidation, want 3", r.reads)
	}

	// Detaching restores the strict mirror-read invariant.
	tr.SetPageCache(nil)
	tr.Access(1, 0, 8)
	tr.Access(1, 0, 7)
	if r.reads != 5 {
		t.Fatalf("%d physical reads after detach, want 5", r.reads)
	}
}

// TestPageCacheConcurrent hammers one cache from many goroutines (for -race).
func TestPageCacheConcurrent(t *testing.T) {
	c := NewPageCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := FrameKey{Tree: g % 3, Page: storage.PageID(i % 100)}
				if i%7 == 0 {
					c.Invalidate(key)
				} else if i%3 == 0 {
					c.Put(key, []byte{byte(i)})
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Pages > 64 {
		t.Fatalf("cache exceeded its budget: %d pages", st.Pages)
	}
}

// TestPageCacheEvictionOrder pins the exact LRU order over a longer churn:
// touching via Get and re-putting both refresh recency, and eviction always
// takes the coldest page.
func TestPageCacheEvictionOrder(t *testing.T) {
	c := NewPageCache(3)
	key := func(p int) FrameKey { return FrameKey{Tree: 1, Page: storage.PageID(p)} }
	c.Put(key(1), []byte("1"))
	c.Put(key(2), []byte("2"))
	c.Put(key(3), []byte("3"))

	c.Get(key(1))               // order (MRU..LRU): 1 3 2
	c.Put(key(2), []byte("2'")) // re-put refreshes: 2 1 3
	c.Put(key(4), []byte("4"))  // evicts 3:         4 2 1
	if _, ok := c.Get(key(3)); ok {
		t.Fatal("page 3 survived although least recently used")
	}
	for _, p := range []int{1, 2, 4} {
		if _, ok := c.Get(key(p)); !ok {
			t.Fatalf("page %d evicted out of LRU order", p)
		}
	}
	if got, _ := c.Get(key(2)); !bytes.Equal(got, []byte("2'")) {
		t.Fatalf("re-put did not replace payload: %q", got)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Pages != 3 {
		t.Fatalf("stats %+v: want exactly 1 eviction, 3 pages", st)
	}

	// Reset drops pages and counters alike.
	c.Reset()
	if st := c.Stats(); st.Pages != 0 || st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("stats after Reset %+v: want all zero", st)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("page served after Reset")
	}
}

// TestPageCacheEpochIsolation drives the cache the way the server does across
// a commit boundary: two trackers (the old and the new epoch) share one
// cache; the commit invalidates the pages it rewrote, so the new epoch reads
// fresh bytes while untouched pages are still served from memory.
func TestPageCacheEpochIsolation(t *testing.T) {
	cache := NewPageCache(16)

	// Epoch 1 warms the cache with generation-1 payloads.
	gen := byte(1)
	read := 0
	reader := readerFunc(func(id storage.PageID) ([]byte, error) {
		read++
		return []byte{gen, byte(id)}, nil
	})
	warm := NewTracker(NewLRU(1), metrics.NewCollector(), 1024, false)
	warm.SetPageReader(1, reader)
	warm.SetPageCache(cache)
	warm.Access(1, 0, 10)
	warm.Access(1, 0, 11)
	if read != 2 {
		t.Fatalf("%d physical reads warming, want 2", read)
	}

	// The commit rewrites page 10 (and only page 10).
	gen = 2
	cache.Invalidate(FrameKey{Tree: 1, Page: 10})

	// Epoch 2: a fresh tracker (fresh counted LRU, as a new epoch gets) over
	// the same cache. Page 11 must come from memory with its old bytes;
	// page 10 must be re-read and serve generation-2 bytes.
	next := NewTracker(NewLRU(1), metrics.NewCollector(), 1024, false)
	next.SetPageReader(1, reader)
	next.SetPageCache(cache)
	next.Access(1, 0, 11)
	if read != 2 {
		t.Fatalf("epoch 2 re-read an unchanged page (%d physical reads)", read)
	}
	next.Access(1, 0, 10)
	if read != 3 {
		t.Fatalf("%d physical reads after the rewritten page, want 3", read)
	}
	if got, ok := cache.Get(FrameKey{Tree: 1, Page: 10}); !ok || !bytes.Equal(got, []byte{2, 10}) {
		t.Fatalf("rewritten page served stale bytes: %q, %v", got, ok)
	}
	if got, ok := cache.Get(FrameKey{Tree: 1, Page: 11}); !ok || !bytes.Equal(got, []byte{1, 11}) {
		t.Fatalf("unchanged page lost its bytes: %q, %v", got, ok)
	}
}

// readerFunc adapts a function to the PageReader interface.
type readerFunc func(storage.PageID) ([]byte, error)

func (f readerFunc) ReadPage(id storage.PageID, _ []byte) ([]byte, error) { return f(id) }

// TestNewPageCacheForBytes pins the byte-budget sizing: whole pages, at
// least one page for any positive budget, zero for a zero budget.
func TestNewPageCacheForBytes(t *testing.T) {
	if got := NewPageCacheForBytes(8192, 1024).Stats().Capacity; got != 8 {
		t.Fatalf("8 KiB / 1 KiB pages: capacity %d, want 8", got)
	}
	if got := NewPageCacheForBytes(100, 1024).Stats().Capacity; got != 1 {
		t.Fatalf("sub-page budget: capacity %d, want 1", got)
	}
	if got := NewPageCacheForBytes(0, 1024).Stats().Capacity; got != 0 {
		t.Fatalf("zero budget: capacity %d, want 0", got)
	}
	if got := NewPageCache(-5).Stats().Capacity; got != 0 {
		t.Fatalf("negative capacity: %d, want 0", got)
	}
}
