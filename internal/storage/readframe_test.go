package storage

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

// commitNodes writes one encoded node per page and commits them.
func commitNodes(t *testing.T, p *Pager, nodes []DiskNode) []PageID {
	t.Helper()
	ids := make([]PageID, len(nodes))
	for i, n := range nodes {
		buf, err := EncodeNode(n, p.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = p.Allocate()
		if err := p.Write(ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	return ids
}

func testNode(level uint16, entries int, base float64) DiskNode {
	n := DiskNode{Level: level}
	for i := 0; i < entries; i++ {
		x := base + float64(i)/64
		n.Entries = append(n.Entries, DiskEntry{Rect: geom.Rect{XL: x, YL: x, XU: x + 0.5, YU: x + 0.25}, Ref: uint32(100*level) + uint32(i)})
	}
	return n
}

// TestPagerReadAllocatesNothing: a read into a frame-sized buffer over real
// files is a pread and a checksum, with no allocation.
func TestPagerReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p := mustOpen(t, OSVFS{}, filepath.Join(t.TempDir(), "a.db"), PageSize4K, testPagerOptions())
	defer p.Close()
	ids := commitNodes(t, p, []DiskNode{testNode(0, 40, 0), testNode(1, 7, 0.25)})
	frame := make([]byte, FrameSize(PageSize4K))
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Read(ids[i%len(ids)], frame); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Pager.Read into a sized frame allocates %.1f times per read, want 0", allocs)
	}
}

// TestPagerReadReusesOneFrame reads two pages in turn through one buffer:
// each payload aliases the buffer, and the node decoded from the first read
// is intact after the second read overwrote the buffer.
func TestPagerReadReusesOneFrame(t *testing.T) {
	p := mustOpen(t, NewMemVFS(), "t.db", PageSize1K, testPagerOptions())
	defer p.Close()
	first, second := testNode(0, 30, 0), testNode(1, 5, 0.5)
	ids := commitNodes(t, p, []DiskNode{first, second})

	frame := make([]byte, FrameSize(PageSize1K))
	buf, err := p.Read(ids[0], frame)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != &frame[frameHeaderSize] {
		t.Fatal("payload does not alias the caller's frame")
	}
	got, err := DecodeNode(buf, PageSize1K)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := p.Read(ids[1], frame)
	if err != nil {
		t.Fatal(err)
	}
	if &buf2[0] != &frame[frameHeaderSize] {
		t.Fatal("second payload does not alias the caller's frame")
	}
	got2, err := DecodeNode(buf2, PageSize1K)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNode(got, first) || !sameNode(got2, second) {
		t.Fatalf("decoded nodes %+v / %+v after sharing one frame", got, got2)
	}

	// A short buffer is grown, not overrun; nil works too.
	for _, short := range [][]byte{nil, make([]byte, 16)} {
		b, err := p.Read(ids[0], short)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := DecodeNode(b, PageSize1K); err != nil || !sameNode(n, first) {
			t.Fatalf("read into a %d-byte buffer: %v", len(short), err)
		}
	}
}

// sameNode compares a decoded node with the node that was encoded, at the
// float32 precision of the page format.
func sameNode(got, want DiskNode) bool {
	if got.Level != want.Level || len(got.Entries) != len(want.Entries) {
		return false
	}
	for i, e := range want.Entries {
		g := got.Entries[i]
		r, w := g.Rect, e.Rect
		if g.Ref != e.Ref || float32(r.XL) != float32(w.XL) || float32(r.YL) != float32(w.YL) ||
			float32(r.XU) != float32(w.XU) || float32(r.YU) != float32(w.YU) {
			return false
		}
	}
	return true
}

// TestPagerReadStagedCopiesIntoBuffer: a page written since the last commit
// is copied into the caller's buffer; writing to the returned payload never
// reaches the staged bytes.
func TestPagerReadStagedCopiesIntoBuffer(t *testing.T) {
	p := mustOpen(t, NewMemVFS(), "t.db", PageSize1K, testPagerOptions())
	defer p.Close()
	id := p.Allocate()
	if err := p.Write(id, []byte("staged")); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, FrameSize(PageSize1K))
	buf, err := p.Read(id, frame)
	if err != nil || string(buf) != "staged" {
		t.Fatalf("staged read: %q, %v", buf, err)
	}
	if &buf[0] != &frame[0] {
		t.Fatal("staged payload was not copied into the caller's buffer")
	}
	buf[0] = 'X'
	if again, err := p.Read(id, nil); err != nil || string(again) != "staged" {
		t.Fatalf("the caller's buffer reached the staged page: %q, %v", again, err)
	}
}

// TestPagerTornFrameIntoCallerBuffer: a torn frame read into a buffer that
// holds a valid frame from an earlier read still quarantines the page and
// returns no payload, and the good page stays readable through that buffer.
func TestPagerTornFrameIntoCallerBuffer(t *testing.T) {
	fs := NewMemVFS()
	p := mustOpen(t, fs, "t.db", PageSize1K, testPagerOptions())
	defer p.Close()
	ids := commitNodes(t, p, []DiskNode{testNode(0, 20, 0), testNode(0, 20, 0.5)})
	good, torn := ids[0], ids[1]
	// Tear the second frame: its tail never reached the disk.
	f, _ := fs.Open("t.db")
	zeros := make([]byte, PageSize1K/2)
	if _, err := f.WriteAt(zeros, int64(torn)*int64(FrameSize(PageSize1K))+frameHeaderSize+PageSize1K/4); err != nil {
		t.Fatal(err)
	}

	frame := make([]byte, FrameSize(PageSize1K))
	if _, err := p.Read(good, frame); err != nil {
		t.Fatal(err)
	}
	buf, err := p.Read(torn, frame)
	if !errors.Is(err, ErrCorruptPage) || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("torn read error: %v", err)
	}
	if buf != nil {
		t.Fatalf("torn read returned a %d-byte payload", len(buf))
	}
	if q := p.Quarantined(); len(q) != 1 || q[0] != torn {
		t.Fatalf("Quarantined() = %v, want [%d]", q, torn)
	}
	if buf, err := p.Read(torn, frame); buf != nil || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second torn read: %d bytes, %v", len(buf), err)
	}
	if _, err := p.Read(good, frame); err != nil {
		t.Fatalf("good page after the torn read: %v", err)
	}
}

// shortReads fills the first half of the buffer with garbage and reports a
// short read for its first fails calls, then passes reads through.
type shortReads struct {
	File
	fails int
}

func (f *shortReads) ReadAt(p []byte, off int64) (int, error) {
	if f.fails > 0 {
		f.fails--
		for i := range p[:len(p)/2] {
			p[i] = 0xA5
		}
		return len(p) / 2, nil
	}
	return f.File.ReadAt(p, off)
}

// TestPagerShortReadIsNeverASuccess: a transient short read into the
// caller's buffer is retried and the retry's full frame is returned; when
// every attempt is short the read surfaces ErrReadExhausted and no payload.
func TestPagerShortReadIsNeverASuccess(t *testing.T) {
	p := mustOpen(t, NewMemVFS(), "t.db", PageSize1K, testPagerOptions())
	defer p.Close()
	want := testNode(0, 25, 0.125)
	id := commitNodes(t, p, []DiskNode{want})[0]
	frame := make([]byte, FrameSize(PageSize1K))

	inner := p.db
	p.db = &shortReads{File: inner, fails: 1}
	buf, err := p.Read(id, frame)
	if err != nil {
		t.Fatalf("read after one short attempt: %v", err)
	}
	if got, err := DecodeNode(buf, PageSize1K); err != nil || !sameNode(got, want) {
		t.Fatalf("retried read returned the partial frame: %v", err)
	}
	if st := p.Stats(); st.ReadRetries != 1 {
		t.Fatalf("ReadRetries = %d, want 1", st.ReadRetries)
	}

	p.db = &shortReads{File: inner, fails: p.opts.ReadRetries + 1}
	buf, err = p.Read(id, frame)
	if !errors.Is(err, ErrReadExhausted) {
		t.Fatalf("every attempt short: %v", err)
	}
	if buf != nil {
		t.Fatalf("exhausted read returned a %d-byte payload", len(buf))
	}
	if len(p.Quarantined()) != 0 {
		t.Fatalf("a short read quarantined %v: it is an I/O error, not a torn frame", p.Quarantined())
	}
	p.db = inner
}
