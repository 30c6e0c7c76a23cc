package buffer

import "sync"

// PageCache is a real page cache: unlike the counted LRU — which only decides
// whether an access would have been a hit — it holds the page payloads, so a
// counted miss whose frame is cached is served from memory without touching
// the pager at all.  This promotes the tracker's measured-I/O mode from
// "every counted miss mirrors one physical read" to a genuine two-level
// hierarchy: counted LRU (the paper's simulated join buffer) over a shared
// byte cache over the pager.
//
// The cache is safe for concurrent use by any number of trackers and
// readers; the server gives each epoch a cache of its own, shared by that
// epoch's query workers.  Eviction is LRU over a fixed page budget, and a
// full cache recycles the evicted entry and its bytes for the page it
// admits, so a warm cache allocates nothing per Put.  Attaching a PageCache
// is opt-in (see Tracker.SetPageCache): the disk experiments keep the exact
// counted-miss == physical-read invariant by simply not attaching one.
type PageCache struct {
	mu       sync.Mutex
	capacity int // max cached pages; <= 0 disables caching entirely
	//repro:guardedBy mu
	frames map[FrameKey]*pcEntry
	//repro:guardedBy mu
	head *pcEntry // most recently used
	//repro:guardedBy mu
	tail *pcEntry // least recently used

	//repro:guardedBy mu
	hits int64
	//repro:guardedBy mu
	misses int64
	//repro:guardedBy mu
	evictions int64
}

type pcEntry struct {
	key        FrameKey
	data       []byte
	prev, next *pcEntry
}

// PageCacheStats is a snapshot of the cache's counters.
type PageCacheStats struct {
	Pages     int   // currently cached pages
	Capacity  int   // page budget
	Hits      int64 // Get calls served from the cache
	Misses    int64 // Get calls that found nothing
	Evictions int64 // pages dropped to make room
}

// NewPageCache returns a cache holding at most capacity pages.
func NewPageCache(capacity int) *PageCache {
	if capacity < 0 {
		capacity = 0
	}
	return &PageCache{capacity: capacity, frames: make(map[FrameKey]*pcEntry)}
}

// NewPageCacheForBytes sizes the cache for a byte budget at the given page
// size (at least one page when bytes > 0).
func NewPageCacheForBytes(bytes, pageSize int) *PageCache {
	if bytes <= 0 || pageSize <= 0 {
		return NewPageCache(0)
	}
	pages := bytes / pageSize
	if pages < 1 {
		pages = 1
	}
	return NewPageCache(pages)
}

// Get returns the cached payload for key and whether it was present.  The
// returned slice is the cache's own frame: callers must treat it as
// read-only, and it is valid only until the next Put on this cache, which
// may recycle the frame for another page.
func (c *PageCache) Get(key FrameKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.frames[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.moveToFront(e)
	return e.data, true
}

// Put stores the payload for key, copying it so later mutations of the
// caller's buffer cannot corrupt the cache.  When the cache is full the
// least recently used entry is evicted and its frame reused for the copy.
// A zero-capacity cache ignores the call.
func (c *PageCache) Put(key FrameKey, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if e, ok := c.frames[key]; ok {
		e.data = append(e.data[:0], data...)
		c.moveToFront(e)
		return
	}
	var e *pcEntry
	for len(c.frames) >= c.capacity {
		e = c.evictTail()
	}
	if e == nil {
		e = &pcEntry{}
	}
	e.key = key
	e.data = append(e.data[:0], data...)
	c.frames[key] = e
	c.pushFront(e)
}

// Invalidate drops the cached payload for key, if any.  TreeStore calls it
// for every page a commit rewrites or frees, so the cache never serves bytes
// the pager has replaced.
func (c *PageCache) Invalidate(key FrameKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.frames[key]; ok {
		c.unlink(e)
		delete(c.frames, key)
	}
}

// Stats returns a snapshot of the counters.
func (c *PageCache) Stats() PageCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PageCacheStats{
		Pages:     len(c.frames),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// Reset drops all cached pages and counters.
func (c *PageCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.frames)
	c.head, c.tail = nil, nil
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// pushFront links e as the most recently used entry.
//
//repro:locked
func (c *PageCache) pushFront(e *pcEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the recency list.
//
//repro:locked
func (c *PageCache) unlink(e *pcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks e as the most recently used entry.
//
//repro:locked
func (c *PageCache) moveToFront(e *pcEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// evictTail drops the least recently used entry and returns it for reuse.
//
//repro:locked
func (c *PageCache) evictTail() *pcEntry {
	e := c.tail
	if e == nil {
		return nil
	}
	c.unlink(e)
	delete(c.frames, e.key)
	c.evictions++
	return e
}
