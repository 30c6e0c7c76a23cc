// Package buffer implements the buffering machinery the paper places between
// the spatial-join algorithms and secondary storage: an LRU page buffer of
// configurable size shared by both R*-trees, per-tree path buffers holding
// the most recently accessed root-to-leaf path, and page pinning as used by
// SpatialJoin4/5.
package buffer

import (
	"fmt"

	"repro/internal/storage"
)

// FrameKey identifies a buffered page.  Pages of the two trees participating
// in a join share one LRU buffer, so the key carries the tree identifier.
type FrameKey struct {
	Tree int
	Page storage.PageID
}

// lruNode is one frame of the buffer, linked into either the recency list or
// the free list.  Frames are recycled on eviction, so the buffer performs no
// steady-state allocations no matter how many pages stream through it.
type lruNode struct {
	key        FrameKey
	prev, next int32
	pins       int32
}

const nilNode = int32(-1)

// LRU is a least-recently-used page buffer with a fixed capacity measured in
// pages.  Pinned pages are never evicted.  A capacity of zero means no
// buffering at all (every access misses), which models the paper's
// "buffer size = 0" experiments.
//
// The recency order is an intrusive doubly-linked list over a frame slice
// that is reused through a free list, so after warm-up Touch/Insert/evict
// cycles allocate nothing.
//
// LRU is not safe for concurrent use; each join owns its buffer, as in the
// paper.
type LRU struct {
	capacity    int
	nodes       []lruNode
	frames      map[FrameKey]int32
	head, tail  int32 // head = most recently used
	free        int32 // head of the free list (linked via next)
	pinnedPages int
	evicted     int64
}

// NewLRU returns a buffer holding at most capacity pages.
func NewLRU(capacity int) *LRU {
	if capacity < 0 {
		capacity = 0
	}
	return &LRU{
		capacity: capacity,
		nodes:    make([]lruNode, 0, capacity),
		frames:   make(map[FrameKey]int32, capacity),
		head:     nilNode,
		tail:     nilNode,
		free:     nilNode,
	}
}

// framesForBytes derives the number of buffer frames from a buffer size and
// a page size, the way the paper derives them from the buffer size in KBytes.
// NewLRUForBytes and ReconfigureForBytes share it so pooled and fresh buffers
// always agree on capacity.
func framesForBytes(bufferBytes, pageSize int) int {
	if pageSize <= 0 {
		return 0
	}
	return bufferBytes / pageSize
}

// NewLRUForBytes returns a buffer sized bufferBytes/pageSize pages.
func NewLRUForBytes(bufferBytes, pageSize int) *LRU {
	return NewLRU(framesForBytes(bufferBytes, pageSize))
}

// Capacity returns the number of page frames.
func (b *LRU) Capacity() int { return b.capacity }

// Len returns the number of pages currently buffered.
func (b *LRU) Len() int { return len(b.frames) }

// Evictions returns how many pages have been evicted so far.
func (b *LRU) Evictions() int64 { return b.evicted }

// Contains reports whether the page is buffered, without touching its
// recency.
func (b *LRU) Contains(k FrameKey) bool {
	_, ok := b.frames[k]
	return ok
}

// unlink removes node i from the recency list.
//
//repro:hotpath
func (b *LRU) unlink(i int32) {
	n := &b.nodes[i]
	if n.prev != nilNode {
		b.nodes[n.prev].next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nilNode {
		b.nodes[n.next].prev = n.prev
	} else {
		b.tail = n.prev
	}
}

// pushFront links node i in front of the recency list.
//
//repro:hotpath
func (b *LRU) pushFront(i int32) {
	n := &b.nodes[i]
	n.prev = nilNode
	n.next = b.head
	if b.head != nilNode {
		b.nodes[b.head].prev = i
	}
	b.head = i
	if b.tail == nilNode {
		b.tail = i
	}
}

// Touch marks the page as most recently used and reports whether it was
// buffered.
//
//repro:hotpath
func (b *LRU) Touch(k FrameKey) bool {
	i, ok := b.frames[k]
	if !ok {
		return false
	}
	if b.head != i {
		b.unlink(i)
		b.pushFront(i)
	}
	return true
}

// Insert places the page into the buffer as most recently used, evicting the
// least recently used unpinned page if the buffer is full.  Inserting an
// already buffered page is equivalent to Touch.  With capacity zero the call
// is a no-op.
//
//repro:hotpath
func (b *LRU) Insert(k FrameKey) {
	if b.capacity == 0 {
		return
	}
	if i, ok := b.frames[k]; ok {
		if b.head != i {
			b.unlink(i)
			b.pushFront(i)
		}
		return
	}
	if len(b.frames) >= b.capacity {
		b.evictOne()
	}
	var i int32
	if b.free != nilNode {
		i = b.free
		b.free = b.nodes[i].next
	} else {
		// Appends happen only until the frame pool reaches its working-set
		// size (capacity frames, plus slack while every frame is pinned).
		b.nodes = append(b.nodes, lruNode{})
		i = int32(len(b.nodes) - 1)
	}
	b.nodes[i] = lruNode{key: k, prev: nilNode, next: nilNode}
	b.frames[k] = i
	b.pushFront(i)
}

// evictOne removes the least recently used unpinned page.  If every buffered
// page is pinned the buffer temporarily grows beyond its capacity; this
// mirrors the paper's pinning, which never pins more than one page at a time.
//
//repro:hotpath
func (b *LRU) evictOne() {
	for i := b.tail; i != nilNode; i = b.nodes[i].prev {
		if b.nodes[i].pins > 0 {
			continue
		}
		b.unlink(i)
		delete(b.frames, b.nodes[i].key)
		b.nodes[i].next = b.free
		b.free = i
		b.evicted++
		return
	}
}

// Pin prevents the page from being evicted until a matching Unpin.  Pinning a
// page that is not buffered inserts it first (the join algorithms pin a page
// they have just read).  Pins nest.
func (b *LRU) Pin(k FrameKey) {
	if b.capacity == 0 {
		// Without a buffer there is nothing to keep; pinning is a no-op and
		// the caller pays a disk access on the next request, as in the paper's
		// zero-buffer configuration.
		return
	}
	b.Insert(k)
	i := b.frames[k]
	if b.nodes[i].pins == 0 {
		b.pinnedPages++
	}
	b.nodes[i].pins++
}

// Unpin releases one pin of the page.  Unpinning a page that is not pinned is
// a no-op.
func (b *LRU) Unpin(k FrameKey) {
	i, ok := b.frames[k]
	if !ok || b.nodes[i].pins == 0 {
		return
	}
	b.nodes[i].pins--
	if b.nodes[i].pins == 0 {
		b.pinnedPages--
	}
}

// Pinned reports whether the page currently holds at least one pin.
func (b *LRU) Pinned(k FrameKey) bool {
	i, ok := b.frames[k]
	return ok && b.nodes[i].pins > 0
}

// ReconfigureForBytes empties the buffer and resizes it to bufferBytes /
// pageSize frames, keeping the frame pool and map storage.  Pooled buffers
// (the join's tracker pool) use it to be reused across joins with different
// buffer configurations without reallocating.
func (b *LRU) ReconfigureForBytes(bufferBytes, pageSize int) {
	capacity := framesForBytes(bufferBytes, pageSize)
	if capacity < 0 {
		capacity = 0
	}
	b.capacity = capacity
	b.Reset()
}

// Reset empties the buffer and clears all pins, keeping the frame pool so a
// reused buffer stays allocation-free.
func (b *LRU) Reset() {
	b.nodes = b.nodes[:0]
	clear(b.frames)
	b.head, b.tail, b.free = nilNode, nilNode, nilNode
	b.pinnedPages = 0
	b.evicted = 0
}

// String implements fmt.Stringer.
func (b *LRU) String() string {
	return fmt.Sprintf("LRU{capacity=%d, len=%d, pinned=%d, evicted=%d}",
		b.capacity, len(b.frames), b.pinnedPages, b.evicted)
}
