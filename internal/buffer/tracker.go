package buffer

import (
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Tracker simulates the I/O path of the paper's join experiments: every node
// access first consults the owning tree's path buffer, then the shared LRU
// buffer, and only on a miss performs (and counts) a disk access.  All reads
// performed through one Tracker therefore share a single buffer, the way the
// paper assumes "the R*-trees involved in the spatial join exclusively use
// all pages of the LRU-buffer".
type Tracker struct {
	lru      *LRU
	metrics  *metrics.Collector
	pageSize int
	usePath  bool
	paths    map[int]*PathBuffer
	readers  map[int]PageReader
	cache    *PageCache
	readErr  error
	// frame is the buffer every physical read of this tracker lands in.  It
	// is sized when the first reader is attached and stays with a pooled
	// tracker across Reconfigure, so a steady-state read allocates nothing.
	frame []byte
}

// PageReader is the measured-I/O hook: when a tree has one attached, every
// counted disk access also performs a real page read against it, so the
// simulation's counted I/O and the pager's measured I/O describe the same
// run.  storage.Pager implements the contract through rtree.TreeStore.
//
// ReadPage reads the page into buf, growing it if it is short, and returns
// the payload, which may alias buf (see storage.Pager.Read): the caller owns
// buf and the payload is valid until its next read into it.
type PageReader interface {
	ReadPage(id storage.PageID, buf []byte) ([]byte, error)
}

// NewTracker creates a tracker that charges accesses to m.  pageSize is used
// for byte accounting of disk transfers.  If usePathBuffer is false only the
// LRU buffer is consulted.
func NewTracker(lru *LRU, m *metrics.Collector, pageSize int, usePathBuffer bool) *Tracker {
	if lru == nil {
		lru = NewLRU(0)
	}
	return &Tracker{
		lru:      lru,
		metrics:  m,
		pageSize: pageSize,
		usePath:  usePathBuffer,
		paths:    make(map[int]*PathBuffer),
	}
}

// LRU returns the shared LRU buffer (for tests and statistics).
func (t *Tracker) LRU() *LRU { return t.lru }

// Metrics returns the collector accesses are charged to.
func (t *Tracker) Metrics() *metrics.Collector { return t.metrics }

// PageSize returns the page size used for byte accounting.
func (t *Tracker) PageSize() int { return t.pageSize }

func (t *Tracker) path(tree int) *PathBuffer {
	p, ok := t.paths[tree]
	if !ok {
		p = NewPathBuffer(0)
		t.paths[tree] = p
	}
	return p
}

// Access simulates reading the page with identifier id of the given tree at
// the given level (0 = leaf).  It returns true if the request was satisfied
// from a buffer and false if it required a disk access.
//
//repro:hotpath
func (t *Tracker) Access(tree, level int, id storage.PageID) bool {
	key := FrameKey{Tree: tree, Page: id}
	if t.usePath {
		p := t.path(tree)
		if p.Contains(level, id) {
			t.metrics.AddPathHit()
			// A path hit still refreshes the page's LRU recency if buffered.
			t.lru.Touch(key)
			return true
		}
		p.Record(level, id)
	}
	if t.lru.Touch(key) {
		t.metrics.AddBufferHit()
		return true
	}
	t.metrics.AddDiskRead(int64(t.pageSize))
	if r, ok := t.readers[tree]; ok && !t.Halted() {
		// Counted miss = real read: the page leaves the disk exactly when the
		// simulation says it does.  A read failure (torn page, dead sector
		// after retries) is latched and surfaced by the join, not swallowed.
		// With a page cache attached the hierarchy is real: a cached frame is
		// served from memory and only a cache miss reaches the pager.
		// The read lands in the tracker's own frame; Put copies it into a
		// recycled cache frame, so neither allocates once the cache is full.
		if t.cache != nil {
			if _, ok := t.cache.Get(key); !ok {
				if data, err := r.ReadPage(id, t.frame); err != nil {
					t.readErr = err
				} else {
					t.cache.Put(key, data)
				}
			}
		} else if _, err := r.ReadPage(id, t.frame); err != nil {
			t.readErr = err
		}
	}
	t.lru.Insert(key)
	return false
}

// SetPageCache attaches a shared page cache below the counted LRU: counted
// misses of trees with an attached PageReader are first served from the
// cache, and only cache misses perform a physical read (whose bytes are then
// cached).  Pass nil to detach and restore the strict counted-miss ==
// physical-read invariant of the disk experiments.
func (t *Tracker) SetPageCache(c *PageCache) { t.cache = c }

// PageCache returns the attached page cache, or nil.
func (t *Tracker) PageCache() *PageCache { return t.cache }

// SetPageReader attaches a real page source for the given tree; pass nil to
// detach.  While attached, every counted disk read of that tree performs a
// physical read through it.
func (t *Tracker) SetPageReader(tree int, r PageReader) {
	if t.readers == nil {
		t.readers = make(map[int]PageReader)
	}
	if r == nil {
		delete(t.readers, tree)
		return
	}
	t.readers[tree] = r
	if n := storage.FrameSize(t.pageSize); cap(t.frame) < n {
		t.frame = make([]byte, n)
	}
}

// ReadErr returns the first physical read error encountered through an
// attached PageReader, or nil.
func (t *Tracker) ReadErr() error { return t.readErr }

// Halted reports whether the tracker performs no further physical reads:
// one of its reads failed.
func (t *Tracker) Halted() bool { return t.readErr != nil }

// Pin keeps the page of the given tree in the LRU buffer until Unpin.
func (t *Tracker) Pin(tree int, id storage.PageID) {
	t.lru.Pin(FrameKey{Tree: tree, Page: id})
}

// Unpin releases a pin taken with Pin.
func (t *Tracker) Unpin(tree int, id storage.PageID) {
	t.lru.Unpin(FrameKey{Tree: tree, Page: id})
}

// Reset clears the LRU buffer and all path buffers, keeping the metrics
// collector untouched.
func (t *Tracker) Reset() {
	t.lru.Reset()
	for _, p := range t.paths {
		p.Reset()
	}
}

// Reconfigure prepares a pooled tracker for a new run: accesses are charged
// to m with the given page size and path-buffer setting, and the per-tree
// path buffers are dropped (the next run joins different trees).  The LRU
// buffer is not touched; callers reconfigure it separately.  The read frame
// is kept for the next run's readers.
func (t *Tracker) Reconfigure(m *metrics.Collector, pageSize int, usePathBuffer bool) {
	t.metrics = m
	t.pageSize = pageSize
	t.usePath = usePathBuffer
	clear(t.paths)
	clear(t.readers)
	t.cache = nil
	t.readErr = nil
}
