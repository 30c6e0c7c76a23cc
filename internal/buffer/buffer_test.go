package buffer

import (
	"errors"

	"testing"

	"repro/internal/metrics"
	"repro/internal/storage"
)

func key(tree int, page storage.PageID) FrameKey { return FrameKey{Tree: tree, Page: page} }

func TestLRUBasicEviction(t *testing.T) {
	b := NewLRU(2)
	b.Insert(key(0, 1))
	b.Insert(key(0, 2))
	if !b.Contains(key(0, 1)) || !b.Contains(key(0, 2)) {
		t.Fatal("expected both pages buffered")
	}
	b.Insert(key(0, 3)) // evicts page 1 (least recently used)
	if b.Contains(key(0, 1)) {
		t.Fatal("page 1 should have been evicted")
	}
	if !b.Contains(key(0, 2)) || !b.Contains(key(0, 3)) {
		t.Fatal("pages 2 and 3 should be buffered")
	}
	if b.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", b.Evictions())
	}
}

func TestLRUTouchChangesEvictionOrder(t *testing.T) {
	b := NewLRU(2)
	b.Insert(key(0, 1))
	b.Insert(key(0, 2))
	if !b.Touch(key(0, 1)) {
		t.Fatal("Touch of buffered page must return true")
	}
	b.Insert(key(0, 3)) // now page 2 is LRU and is evicted
	if b.Contains(key(0, 2)) {
		t.Fatal("page 2 should have been evicted")
	}
	if !b.Contains(key(0, 1)) {
		t.Fatal("page 1 should have survived")
	}
	if b.Touch(key(0, 99)) {
		t.Fatal("Touch of unknown page must return false")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	b := NewLRU(0)
	b.Insert(key(0, 1))
	if b.Contains(key(0, 1)) {
		t.Fatal("zero-capacity buffer must not retain pages")
	}
	b.Pin(key(0, 1))
	if b.Pinned(key(0, 1)) {
		t.Fatal("zero-capacity buffer must not pin pages")
	}
	if b.Len() != 0 {
		t.Fatal("zero-capacity buffer must stay empty")
	}
}

func TestNewLRUForBytes(t *testing.T) {
	if got := NewLRUForBytes(128<<10, storage.PageSize4K).Capacity(); got != 32 {
		t.Errorf("capacity = %d, want 32", got)
	}
	if got := NewLRUForBytes(0, storage.PageSize4K).Capacity(); got != 0 {
		t.Errorf("capacity = %d, want 0", got)
	}
	if got := NewLRUForBytes(8<<10, 0).Capacity(); got != 0 {
		t.Errorf("capacity with zero page size = %d, want 0", got)
	}
	if got := NewLRU(-5).Capacity(); got != 0 {
		t.Errorf("negative capacity = %d, want 0", got)
	}
}

func TestLRUPinPreventsEviction(t *testing.T) {
	b := NewLRU(2)
	b.Insert(key(0, 1))
	b.Pin(key(0, 1))
	b.Insert(key(0, 2))
	b.Insert(key(0, 3)) // page 1 is pinned, so page 2 must be evicted instead
	if !b.Contains(key(0, 1)) {
		t.Fatal("pinned page must not be evicted")
	}
	if b.Contains(key(0, 2)) {
		t.Fatal("page 2 should have been evicted instead of the pinned page")
	}
	b.Unpin(key(0, 1))
	b.Insert(key(0, 4)) // now page 1 can go (it is the least recently used)
	if b.Contains(key(0, 1)) {
		t.Fatal("page 1 should be evictable after Unpin")
	}
}

func TestLRUNestedPins(t *testing.T) {
	b := NewLRU(1)
	b.Pin(key(0, 1))
	b.Pin(key(0, 1))
	b.Unpin(key(0, 1))
	if !b.Pinned(key(0, 1)) {
		t.Fatal("page must stay pinned until all pins are released")
	}
	b.Unpin(key(0, 1))
	if b.Pinned(key(0, 1)) {
		t.Fatal("page must be unpinned after releasing all pins")
	}
	// Unpinning an unpinned page is a no-op.
	b.Unpin(key(0, 2))
}

func TestLRUAllPinnedGrowsTemporarily(t *testing.T) {
	b := NewLRU(1)
	b.Pin(key(0, 1))
	b.Insert(key(0, 2)) // nothing evictable; buffer grows
	if !b.Contains(key(0, 1)) || !b.Contains(key(0, 2)) {
		t.Fatal("both pages should be resident when the only candidate is pinned")
	}
}

func TestLRUResetAndString(t *testing.T) {
	b := NewLRU(4)
	b.Insert(key(0, 1))
	b.Pin(key(0, 1))
	b.Reset()
	if b.Len() != 0 || b.Pinned(key(0, 1)) || b.Evictions() != 0 {
		t.Fatal("Reset must clear frames, pins and statistics")
	}
	if b.String() == "" {
		t.Fatal("String must not be empty")
	}
}

func TestPathBuffer(t *testing.T) {
	p := NewPathBuffer(3)
	if p.Contains(0, 1) {
		t.Fatal("empty path buffer must not contain pages")
	}
	p.Record(2, 10)
	p.Record(1, 11)
	p.Record(0, 12)
	if !p.Contains(2, 10) || !p.Contains(1, 11) || !p.Contains(0, 12) {
		t.Fatal("recorded path must be contained")
	}
	// Recording a new node at level 1 invalidates the leaf below it.
	p.Record(1, 20)
	if p.Contains(0, 12) {
		t.Fatal("deeper levels must be invalidated when the path changes")
	}
	if !p.Contains(2, 10) {
		t.Fatal("levels above the change must stay valid")
	}
	// Out-of-range queries and records are harmless.
	if p.Contains(-1, 10) || p.Contains(99, 10) {
		t.Fatal("out-of-range levels must not be contained")
	}
	p.Record(-1, 5)
	p.Record(5, 5)
	if !p.Contains(5, 5) {
		t.Fatal("path buffer must grow on demand")
	}
	p.Reset()
	if p.Contains(2, 10) {
		t.Fatal("Reset must clear the path")
	}
	if NewPathBuffer(-1) == nil {
		t.Fatal("negative height must still produce a buffer")
	}
}

func TestTrackerCountsDiskAccessesAndHits(t *testing.T) {
	m := metrics.NewCollector()
	tr := NewTracker(NewLRU(2), m, storage.PageSize1K, false)

	if hit := tr.Access(0, 0, 1); hit {
		t.Fatal("first access must miss")
	}
	if hit := tr.Access(0, 0, 1); !hit {
		t.Fatal("second access must hit the LRU buffer")
	}
	tr.Access(0, 0, 2)
	tr.Access(0, 0, 3) // evicts page 1
	if hit := tr.Access(0, 0, 1); hit {
		t.Fatal("evicted page must miss again")
	}
	if m.DiskReads() != 4 {
		t.Fatalf("DiskReads = %d, want 4", m.DiskReads())
	}
	if m.BufferHits() != 1 {
		t.Fatalf("BufferHits = %d, want 1", m.BufferHits())
	}
	if m.BytesRead() != 4*storage.PageSize1K {
		t.Fatalf("BytesRead = %d", m.BytesRead())
	}
}

func TestTrackerPathBuffer(t *testing.T) {
	m := metrics.NewCollector()
	tr := NewTracker(NewLRU(0), m, storage.PageSize1K, true)

	tr.Access(0, 1, 10) // miss
	if hit := tr.Access(0, 1, 10); !hit {
		t.Fatal("re-access of the node on the current path must hit")
	}
	if m.PathHits() != 1 {
		t.Fatalf("PathHits = %d, want 1", m.PathHits())
	}
	// A different tree has an independent path.
	if hit := tr.Access(1, 1, 10); hit {
		t.Fatal("path buffer must be per tree")
	}
	if m.DiskReads() != 2 {
		t.Fatalf("DiskReads = %d, want 2", m.DiskReads())
	}
}

func TestTrackerSharedAcrossTrees(t *testing.T) {
	m := metrics.NewCollector()
	tr := NewTracker(NewLRU(1), m, storage.PageSize1K, false)
	tr.Access(0, 0, 1)
	tr.Access(1, 0, 1) // same page id but different tree: distinct frame, evicts tree 0's page
	if hit := tr.Access(0, 0, 1); hit {
		t.Fatal("frames must be namespaced by tree")
	}
}

func TestTrackerPinAndReset(t *testing.T) {
	m := metrics.NewCollector()
	tr := NewTracker(NewLRU(1), m, storage.PageSize1K, false)
	tr.Access(0, 0, 1)
	tr.Pin(0, 1)
	tr.Access(0, 0, 2) // cannot evict pinned page
	if hit := tr.Access(0, 0, 1); !hit {
		t.Fatal("pinned page must remain buffered")
	}
	tr.Unpin(0, 1)
	tr.Reset()
	if hit := tr.Access(0, 0, 1); hit {
		t.Fatal("Reset must clear the buffer")
	}
	if tr.LRU() == nil || tr.Metrics() != m || tr.PageSize() != storage.PageSize1K {
		t.Fatal("accessors must expose construction parameters")
	}
}

func TestTrackerNilLRU(t *testing.T) {
	tr := NewTracker(nil, metrics.NewCollector(), storage.PageSize1K, false)
	if tr.LRU() == nil {
		t.Fatal("nil LRU must be replaced by an empty buffer")
	}
	tr.Access(0, 0, 1)
}

// stubReader records the pages it was asked to read and fails on demand.
type stubReader struct {
	reads []storage.PageID
	fail  error
}

func (r *stubReader) ReadPage(id storage.PageID, _ []byte) ([]byte, error) {
	r.reads = append(r.reads, id)
	return nil, r.fail
}

// TestTrackerPageReaderMirrorsCountedMisses pins the measured-I/O hook: an
// attached PageReader is invoked exactly once per counted disk read (never on
// a buffer hit), and a read failure is latched and surfaced through ReadErr
// instead of being swallowed mid-join.
func TestTrackerPageReaderMirrorsCountedMisses(t *testing.T) {
	m := metrics.NewCollector()
	tr := NewTracker(NewLRU(10), m, 1024, false)
	r := &stubReader{}
	tr.SetPageReader(1, r)

	tr.Access(1, 0, 7) // miss: physical read
	tr.Access(1, 0, 7) // LRU hit: no read
	tr.Access(1, 0, 8) // miss: physical read
	tr.Access(2, 0, 9) // other tree, no reader attached
	if len(r.reads) != 2 || r.reads[0] != 7 || r.reads[1] != 8 {
		t.Fatalf("reader saw %v, want [7 8]", r.reads)
	}
	if got := m.Snapshot().DiskReads; got != 3 {
		t.Fatalf("counted %d disk reads, want 3", got)
	}
	if err := tr.ReadErr(); err != nil {
		t.Fatalf("ReadErr: %v", err)
	}

	// Detaching stops the mirroring.
	tr.SetPageReader(1, nil)
	tr.Access(1, 0, 10)
	if len(r.reads) != 2 {
		t.Fatalf("detached reader still called: %v", r.reads)
	}

	// A failing read is latched: the tracker keeps counting, but the error
	// stays visible until Reconfigure.
	fail := &stubReader{fail: storage.ErrReadExhausted}
	tr.SetPageReader(1, fail)
	tr.Access(1, 0, 11)
	tr.Access(1, 0, 12)
	if err := tr.ReadErr(); !errors.Is(err, storage.ErrReadExhausted) {
		t.Fatalf("ReadErr after failure: %v", err)
	}
	if len(fail.reads) != 1 {
		t.Fatalf("reader called %d times after a latched error, want 1", len(fail.reads))
	}
	tr.Reconfigure(m, 1024, false)
	if err := tr.ReadErr(); err != nil {
		t.Fatalf("Reconfigure did not clear the latched error: %v", err)
	}
}

// frameReader records the buffer of every read it serves.
type frameReader struct{ bufs [][]byte }

func (r *frameReader) ReadPage(id storage.PageID, buf []byte) ([]byte, error) {
	r.bufs = append(r.bufs, buf)
	return buf[:1], nil
}

// TestTrackerReadsIntoItsOwnFrame: every physical read of a tracker lands in
// one frame sized for a whole page frame, and a pooled tracker keeps that
// frame across Reconfigure.
func TestTrackerReadsIntoItsOwnFrame(t *testing.T) {
	tr := NewTracker(NewLRU(0), metrics.NewCollector(), storage.PageSize4K, false)
	r := &frameReader{}
	tr.SetPageReader(1, r)
	tr.SetPageCache(NewPageCache(1))
	for i := 0; i < 4; i++ {
		tr.Access(1, 0, storage.PageID(i))
	}
	tr.Reconfigure(metrics.NewCollector(), storage.PageSize4K, false)
	tr.SetPageReader(1, r)
	tr.Access(1, 0, 9)
	if len(r.bufs) != 5 {
		t.Fatalf("%d physical reads, want 5", len(r.bufs))
	}
	first := r.bufs[0]
	if len(first) < storage.FrameSize(storage.PageSize4K) {
		t.Fatalf("read frame of %d bytes, want at least %d", len(first), storage.FrameSize(storage.PageSize4K))
	}
	for i, b := range r.bufs {
		if &b[0] != &first[0] {
			t.Fatalf("read %d got a different frame", i)
		}
	}
}
