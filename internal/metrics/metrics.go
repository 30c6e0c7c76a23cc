// Package metrics collects the two cost measures used by the paper to
// evaluate spatial-join algorithms: the number of floating-point comparisons
// (CPU time) and the number of disk accesses (I/O time), plus auxiliary
// counters such as buffer hits and node sorts that the experiments report.
//
// A Collector is safe for concurrent use; all counters are updated with
// atomic operations so that parallel benchmark workers can share one
// collector.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Collector accumulates cost counters for one experiment run.
// The zero value is ready to use.
type Collector struct {
	comparisons     atomic.Int64
	sortComparisons atomic.Int64
	diskReads       atomic.Int64
	diskWrites      atomic.Int64
	bufferHits      atomic.Int64
	pathHits        atomic.Int64
	bytesRead       atomic.Int64
	bytesWritten    atomic.Int64
	nodeSorts       atomic.Int64
	pairsTested     atomic.Int64
	pairsReported   atomic.Int64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// AddComparisons charges n floating-point comparisons spent on evaluating the
// join condition.  It implements geom.ComparisonCounter.
func (c *Collector) AddComparisons(n int64) {
	if c == nil {
		return
	}
	c.comparisons.Add(n)
}

// AddSortComparisons charges n comparisons spent on sorting node entries
// (the "sorting" row of the paper's Table 4).  The sweep joins charge a
// node's whole stable sort by lower x-corner on every counted disk read that
// brings the node in for a sweep, as section 4.2 sorts a page "each time it
// is read into the buffer"; a buffer hit finds the page sorted.
func (c *Collector) AddSortComparisons(n int64) {
	if c == nil {
		return
	}
	c.sortComparisons.Add(n)
}

// AddDiskRead records a page read from (simulated) secondary storage of the
// given size in bytes.
func (c *Collector) AddDiskRead(bytes int64) {
	if c == nil {
		return
	}
	c.diskReads.Add(1)
	c.bytesRead.Add(bytes)
}

// AddDiskWrite records a page written to (simulated) secondary storage of the
// given size in bytes.
func (c *Collector) AddDiskWrite(bytes int64) {
	if c == nil {
		return
	}
	c.diskWrites.Add(1)
	c.bytesWritten.Add(bytes)
}

// AddBufferHit records a page request satisfied by the LRU buffer.
func (c *Collector) AddBufferHit() {
	if c == nil {
		return
	}
	c.bufferHits.Add(1)
}

// AddPathHit records a page request satisfied by the path buffer.
func (c *Collector) AddPathHit() {
	if c == nil {
		return
	}
	c.pathHits.Add(1)
}

// AddNodeSort records that one node's entries were sorted after being read
// into the buffer (used to compute the paper's repeat-factor).
func (c *Collector) AddNodeSort() {
	if c == nil {
		return
	}
	c.nodeSorts.Add(1)
}

// AddPairTested records that one pair of entries was tested for the join
// condition.
func (c *Collector) AddPairTested() {
	if c == nil {
		return
	}
	c.pairsTested.Add(1)
}

// AddPairReported records that one pair of entries was reported as a join
// result.
func (c *Collector) AddPairReported() {
	if c == nil {
		return
	}
	c.pairsReported.Add(1)
}

// Comparisons returns the number of join-condition comparisons charged so far.
func (c *Collector) Comparisons() int64 { return c.comparisons.Load() }

// SortComparisons returns the number of comparisons charged to node sorting.
func (c *Collector) SortComparisons() int64 { return c.sortComparisons.Load() }

// TotalComparisons returns join plus sorting comparisons.
func (c *Collector) TotalComparisons() int64 {
	return c.comparisons.Load() + c.sortComparisons.Load()
}

// DiskReads returns the number of page reads that went to secondary storage.
func (c *Collector) DiskReads() int64 { return c.diskReads.Load() }

// DiskWrites returns the number of page writes to secondary storage.
func (c *Collector) DiskWrites() int64 { return c.diskWrites.Load() }

// DiskAccesses returns reads plus writes; the paper's I/O measure.
func (c *Collector) DiskAccesses() int64 { return c.diskReads.Load() + c.diskWrites.Load() }

// BufferHits returns the number of page requests served from the LRU buffer.
func (c *Collector) BufferHits() int64 { return c.bufferHits.Load() }

// PathHits returns the number of page requests served from the path buffer.
func (c *Collector) PathHits() int64 { return c.pathHits.Load() }

// BytesRead returns the number of bytes read from secondary storage.
func (c *Collector) BytesRead() int64 { return c.bytesRead.Load() }

// BytesWritten returns the number of bytes written to secondary storage.
func (c *Collector) BytesWritten() int64 { return c.bytesWritten.Load() }

// NodeSorts returns how many times a node was sorted after being read: once
// per counted disk read that brought a node in for a sweep.
func (c *Collector) NodeSorts() int64 { return c.nodeSorts.Load() }

// PairsTested returns the number of entry pairs tested for the join condition.
func (c *Collector) PairsTested() int64 { return c.pairsTested.Load() }

// PairsReported returns the number of result pairs reported.
func (c *Collector) PairsReported() int64 { return c.pairsReported.Load() }

// AddSnapshot adds every counter of s to the collector.  ParallelJoin uses it
// to merge per-worker collectors into the shared one once at the end of the
// run instead of contending on shared atomics throughout.
func (c *Collector) AddSnapshot(s Snapshot) {
	if c == nil {
		return
	}
	c.comparisons.Add(s.Comparisons)
	c.sortComparisons.Add(s.SortComparisons)
	c.diskReads.Add(s.DiskReads)
	c.diskWrites.Add(s.DiskWrites)
	c.bufferHits.Add(s.BufferHits)
	c.pathHits.Add(s.PathHits)
	c.bytesRead.Add(s.BytesRead)
	c.bytesWritten.Add(s.BytesWritten)
	c.nodeSorts.Add(s.NodeSorts)
	c.pairsTested.Add(s.PairsTested)
	c.pairsReported.Add(s.PairsReported)
}

// Reset zeroes every counter.
func (c *Collector) Reset() {
	c.comparisons.Store(0)
	c.sortComparisons.Store(0)
	c.diskReads.Store(0)
	c.diskWrites.Store(0)
	c.bufferHits.Store(0)
	c.pathHits.Store(0)
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.nodeSorts.Store(0)
	c.pairsTested.Store(0)
	c.pairsReported.Store(0)
}

// Snapshot is an immutable copy of all counters, suitable for reporting.
// SortComparisons and NodeSorts follow the on-counted-read rule documented at
// Collector.AddSortComparisons, so they vary with the buffer like DiskReads
// and are exact for a given join, tree pair and buffer configuration.
type Snapshot struct {
	Comparisons     int64
	SortComparisons int64
	DiskReads       int64
	DiskWrites      int64
	BufferHits      int64
	PathHits        int64
	BytesRead       int64
	BytesWritten    int64
	NodeSorts       int64
	PairsTested     int64
	PairsReported   int64
}

// Snapshot returns a point-in-time copy of the counters.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		Comparisons:     c.comparisons.Load(),
		SortComparisons: c.sortComparisons.Load(),
		DiskReads:       c.diskReads.Load(),
		DiskWrites:      c.diskWrites.Load(),
		BufferHits:      c.bufferHits.Load(),
		PathHits:        c.pathHits.Load(),
		BytesRead:       c.bytesRead.Load(),
		BytesWritten:    c.bytesWritten.Load(),
		NodeSorts:       c.nodeSorts.Load(),
		PairsTested:     c.pairsTested.Load(),
		PairsReported:   c.pairsReported.Load(),
	}
}

// DiskAccesses returns reads plus writes captured by the snapshot.
func (s Snapshot) DiskAccesses() int64 { return s.DiskReads + s.DiskWrites }

// TotalComparisons returns join plus sorting comparisons captured by the
// snapshot.
func (s Snapshot) TotalComparisons() int64 { return s.Comparisons + s.SortComparisons }

// Sub returns the per-counter difference s - other.  Experiments use it to
// isolate the cost of a single phase from cumulative counters.
func (s Snapshot) Sub(other Snapshot) Snapshot {
	return Snapshot{
		Comparisons:     s.Comparisons - other.Comparisons,
		SortComparisons: s.SortComparisons - other.SortComparisons,
		DiskReads:       s.DiskReads - other.DiskReads,
		DiskWrites:      s.DiskWrites - other.DiskWrites,
		BufferHits:      s.BufferHits - other.BufferHits,
		PathHits:        s.PathHits - other.PathHits,
		BytesRead:       s.BytesRead - other.BytesRead,
		BytesWritten:    s.BytesWritten - other.BytesWritten,
		NodeSorts:       s.NodeSorts - other.NodeSorts,
		PairsTested:     s.PairsTested - other.PairsTested,
		PairsReported:   s.PairsReported - other.PairsReported,
	}
}

// String implements fmt.Stringer with a compact one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("comparisons=%d sort=%d diskReads=%d diskWrites=%d bufferHits=%d pathHits=%d pairs=%d",
		s.Comparisons, s.SortComparisons, s.DiskReads, s.DiskWrites, s.BufferHits, s.PathHits, s.PairsReported)
}
