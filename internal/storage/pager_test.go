package storage

import (
	"errors"
	"io"
	"testing"
	"time"
)

// noSleep makes retry backoff free in tests.
var noSleep = func(time.Duration) {}

func testPagerOptions() PagerOptions {
	return PagerOptions{Sleep: noSleep}
}

// mustOpen opens a pager or fails the test.
func mustOpen(t *testing.T, fs VFS, path string, pageSize int, opts PagerOptions) *Pager {
	t.Helper()
	p, err := OpenPager(fs, path, pageSize, opts)
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	return p
}

func TestMemVFSDurabilityModel(t *testing.T) {
	fs := NewMemVFS()
	f, err := fs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	// Unsynced writes are visible to reads but are not guaranteed to survive
	// a crash: a seeded prefix may persist, wholly or torn, like a real disk.
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "hello" {
		t.Fatalf("read before crash: %q, %v", buf, err)
	}
	fs.Crash(1)
	if n, err := f.Size(); err != nil || n > 5 {
		t.Fatalf("size after crash: %d, %v", n, err)
	}
	// Synced writes survive.
	if _, err := f.WriteAt([]byte("world"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash(2)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "world" {
		t.Fatalf("read after synced crash: %q, %v", buf, err)
	}
}

func TestMemVFSCrashIsDeterministic(t *testing.T) {
	image := func(seed int64) []byte {
		fs := NewMemVFS()
		f, _ := fs.Open("x")
		for i := 0; i < 8; i++ {
			f.WriteAt([]byte{byte(i), byte(i), byte(i), byte(i)}, int64(4*i))
		}
		fs.Crash(seed)
		n, _ := f.Size()
		buf := make([]byte, n)
		f.ReadAt(buf, 0)
		return buf
	}
	a, b := image(7), image(7)
	if string(a) != string(b) {
		t.Fatalf("same seed, different surviving images: %x vs %x", a, b)
	}
}

func TestFaultFSCrashPointFiresOnce(t *testing.T) {
	fs := NewFaultFS(NewMemVFS(), FaultScript{CrashAtOp: 3})
	f, err := fs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("op 1 should succeed: %v", err)
	}
	if _, err := f.WriteAt([]byte("b"), 1); err != nil {
		t.Fatalf("op 2 should succeed: %v", err)
	}
	if _, err := f.WriteAt([]byte("c"), 2); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("op 3 should crash, got %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("Crashed() should report true")
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("every op after the crash must fail, got %v", err)
	}
}

func TestFaultFSInjectsTransientFaults(t *testing.T) {
	fs := NewFaultFS(NewMemVFS(), FaultScript{ReadErrEvery: 2, SyncErrEvery: 2, WriteShortEvery: 2})
	f, _ := fs.Open("x")
	if _, err := f.WriteAt([]byte("abcd"), 0); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if n, err := f.WriteAt([]byte("efgh"), 4); !errors.Is(err, ErrInjectedWrite) || n != 2 {
		t.Fatalf("write 2 should be short (2 bytes), got n=%d err=%v", n, err)
	}
	buf := make([]byte, 2)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("read 2 should fail, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("sync 2 should fail, got %v", err)
	}
}

func TestPagerLifecycleAndReopen(t *testing.T) {
	for name, fs := range map[string]VFS{"mem": NewMemVFS(), "os": OSVFS{}} {
		t.Run(name, func(t *testing.T) {
			path := "t.db"
			if _, ok := fs.(OSVFS); ok {
				path = t.TempDir() + "/t.db"
			}
			p := mustOpen(t, fs, path, PageSize1K, testPagerOptions())
			a, b := p.Allocate(), p.Allocate()
			if err := p.Write(a, []byte("alpha")); err != nil {
				t.Fatal(err)
			}
			if err := p.Write(b, []byte("beta")); err != nil {
				t.Fatal(err)
			}
			p.SetRoot(b)
			if _, err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			q := mustOpen(t, fs, path, PageSize1K, testPagerOptions())
			defer q.Close()
			if got := q.Root(); got != b {
				t.Fatalf("root after reopen: %d, want %d", got, b)
			}
			if buf, err := q.Read(a, nil); err != nil || string(buf) != "alpha" {
				t.Fatalf("page a after reopen: %q, %v", buf, err)
			}
			if buf, err := q.Read(b, nil); err != nil || string(buf) != "beta" {
				t.Fatalf("page b after reopen: %q, %v", buf, err)
			}
			if q.Len() != 2 {
				t.Fatalf("Len after reopen: %d", q.Len())
			}
			// Wrong page size must be rejected, not misread.
			if _, err := OpenPager(fs, path, PageSize2K, testPagerOptions()); !errors.Is(err, ErrPageSizeAgain) {
				t.Fatalf("wrong page size: %v", err)
			}
		})
	}
}

func TestPagerUncommittedStateIsInvisible(t *testing.T) {
	fs := NewMemVFS()
	p := mustOpen(t, fs, "t.db", PageSize1K, testPagerOptions())
	id := p.Allocate()
	if err := p.Write(id, []byte("staged")); err != nil {
		t.Fatal(err)
	}
	// Staged reads come back before commit...
	if buf, err := p.Read(id, nil); err != nil || string(buf) != "staged" {
		t.Fatalf("staged read: %q, %v", buf, err)
	}
	// ...but a crash before commit loses them.
	fs.Crash(3)
	q := mustOpen(t, fs, "t.db", PageSize1K, testPagerOptions())
	defer q.Close()
	if q.Len() != 0 || q.Seq() != 0 {
		t.Fatalf("uncommitted allocation survived: len=%d seq=%d", q.Len(), q.Seq())
	}
}

func TestPagerWALReplayAfterCrash(t *testing.T) {
	fs := NewMemVFS()
	// Disable auto-checkpoints so the committed state lives in the WAL only.
	opts := PagerOptions{Sleep: noSleep, CheckpointEvery: -1}
	p := mustOpen(t, fs, "t.db", PageSize1K, opts)
	id := p.Allocate()
	if err := p.Write(id, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	p.SetRoot(id)
	seq, err := p.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// Power cut: the db writes were never synced, only the WAL was.  The
	// unsynced db state may die (wholly or torn); recovery must replay the
	// WAL so the outcome is the same either way.
	fs.Crash(4)
	q := mustOpen(t, fs, "t.db", PageSize1K, opts)
	defer q.Close()
	if q.Stats().RecoveredTxns == 0 {
		t.Fatal("reopen after crash replayed no WAL transactions")
	}
	if q.Seq() != seq {
		t.Fatalf("recovered seq %d, want %d", q.Seq(), seq)
	}
	if buf, err := q.Read(id, nil); err != nil || string(buf) != "durable" {
		t.Fatalf("recovered page: %q, %v", buf, err)
	}
	if q.Root() != id {
		t.Fatalf("recovered root %d, want %d", q.Root(), id)
	}
}

func TestPagerFreeListReuseAcrossReopen(t *testing.T) {
	fs := NewMemVFS()
	p := mustOpen(t, fs, "t.db", PageSize1K, testPagerOptions())
	var ids []PageID
	for i := 0; i < 4; i++ {
		id := p.Allocate()
		ids = append(ids, id)
		if err := p.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	p.Free(ids[1])
	p.Free(ids[2])
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(ids[1], nil); !errors.Is(err, ErrUnknownPage) {
		t.Fatalf("freed page still readable: %v", err)
	}
	// Freed ids are reused before the file grows.
	got := map[PageID]bool{p.Allocate(): true, p.Allocate(): true}
	if !got[ids[1]] || !got[ids[2]] {
		t.Fatalf("allocate after free returned %v, want the freed ids %d and %d", got, ids[1], ids[2])
	}
	next := p.Allocate()
	if next != ids[3]+1 {
		t.Fatalf("after draining the free list, allocate should extend the file: got %d, want %d",
			next, ids[3]+1)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// The free chain also survives a reopen (this pager freed two more).
	q := mustOpen(t, fs, "t.db", PageSize1K, testPagerOptions())
	q.Free(ids[0])
	if _, err := q.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, fs, "t.db", PageSize1K, testPagerOptions())
	defer r.Close()
	if id := r.Allocate(); id != ids[0] {
		t.Fatalf("reopened pager should reuse freed page %d, got %d", ids[0], id)
	}
	if r.Stats().ReuseAllocations != 1 {
		t.Fatalf("ReuseAllocations = %d, want 1", r.Stats().ReuseAllocations)
	}
}

func TestPagerChecksumQuarantinesCorruptPage(t *testing.T) {
	fs := NewMemVFS()
	p := mustOpen(t, fs, "t.db", PageSize1K, testPagerOptions())
	id := p.Allocate()
	if err := p.Write(id, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte behind the pager's back.
	f, _ := fs.Open("t.db")
	if _, err := f.WriteAt([]byte{0xFF}, int64(id)*int64(frameHeaderSize+PageSize1K)+frameHeaderSize); err != nil {
		t.Fatal(err)
	}
	_, err := p.Read(id, nil)
	if !errors.Is(err, ErrCorruptPage) || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("corrupt read error: %v", err)
	}
	// The page is quarantined and reported, and stays that way without
	// touching the disk again.
	if q := p.Quarantined(); len(q) != 1 || q[0] != id {
		t.Fatalf("Quarantined() = %v", q)
	}
	if _, err2 := p.Read(id, nil); !errors.Is(err2, ErrQuarantined) {
		t.Fatalf("second read: %v", err2)
	}
	// Rewriting the page clears the quarantine.
	if err := p.Write(id, []byte("restored")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if buf, err := p.Read(id, nil); err != nil || string(buf) != "restored" {
		t.Fatalf("after rewrite: %q, %v", buf, err)
	}
	if len(p.Quarantined()) != 0 {
		t.Fatalf("quarantine not cleared: %v", p.Quarantined())
	}
}

func TestPagerReadRetriesTransientErrors(t *testing.T) {
	base := NewMemVFS()
	p := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	id := p.Allocate()
	if err := p.Write(id, []byte("flaky")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Every second read fails: each frame read needs one retry and succeeds.
	fs := NewFaultFS(base, FaultScript{ReadErrEvery: 2})
	var slept []time.Duration
	opts := PagerOptions{Sleep: func(d time.Duration) { slept = append(slept, d) }}
	q := mustOpen(t, fs, "t.db", PageSize1K, opts)
	defer q.Close()
	if buf, err := q.Read(id, nil); err != nil || string(buf) != "flaky" {
		t.Fatalf("read through transient faults: %q, %v", buf, err)
	}
	if q.Stats().ReadRetries == 0 {
		t.Fatal("no retries recorded")
	}
	if len(slept) == 0 {
		t.Fatal("retries did not back off")
	}
	for i := 1; i < len(slept); i++ {
		if slept[i] < slept[i-1] && slept[i] != slept[0] {
			// Backoff resets per read call; within a call it must not shrink.
			continue
		}
	}
}

func TestPagerReadExhaustionSurfaces(t *testing.T) {
	base := NewMemVFS()
	p := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	id := p.Allocate()
	if err := p.Write(id, []byte("dead sector")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	defer q.Close()
	// Every read fails from here on: retries must exhaust and the error must
	// surface with both the retry marker and the injected cause.
	q.db = &failingFile{q.db}
	_, err := q.Read(id, nil)
	if !errors.Is(err, ErrReadExhausted) || !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("exhausted read error: %v", err)
	}
	if q.Stats().ReadRetries != int64(q.opts.ReadRetries) {
		t.Fatalf("retries = %d, want %d", q.Stats().ReadRetries, q.opts.ReadRetries)
	}
}

// failingFile fails every read; writes pass through.
type failingFile struct{ File }

func (f *failingFile) ReadAt(p []byte, off int64) (int, error) { return 0, ErrInjectedRead }

func TestPagerCommitRetryAfterSyncFailure(t *testing.T) {
	base := NewMemVFS()
	p := mustOpen(t, base, "t.db", PageSize1K, PagerOptions{Sleep: noSleep, CheckpointEvery: -1})
	id := p.Allocate()
	if err := p.Write(id, []byte("persist me")); err != nil {
		t.Fatal(err)
	}
	// The first commit's WAL fsync dies; the staged state must survive the
	// failure so a retry can land it.
	p.wal = &failingSyncs{File: p.wal, fails: 1}
	if _, err := p.Commit(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("commit with dead fsync: %v", err)
	}
	seq, err := p.Commit()
	if err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	if seq != 1 {
		t.Fatalf("committed seq %d, want 1", seq)
	}
	if buf, err := p.Read(id, nil); err != nil || string(buf) != "persist me" {
		t.Fatalf("after retried commit: %q, %v", buf, err)
	}
}

func TestPagerBrokenAfterWriteBackFailure(t *testing.T) {
	base := NewMemVFS()
	p := mustOpen(t, base, "t.db", PageSize1K, PagerOptions{Sleep: noSleep, CheckpointEvery: -1})
	id := p.Allocate()
	if err := p.Write(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// Break the db handle: the next commit's WAL append succeeds but the
	// write-back fails, leaving the main file behind the WAL.
	p.db = &failingWrites{p.db}
	if err := p.Write(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); !errors.Is(err, ErrPagerBroken) {
		t.Fatalf("commit after write-back failure: %v", err)
	}
	if _, err := p.Read(id, nil); !errors.Is(err, ErrPagerBroken) {
		t.Fatalf("reads must refuse stale state: %v", err)
	}
	// Reopening replays the WAL: v2 was durable the moment the WAL synced.
	q := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	defer q.Close()
	if buf, err := q.Read(id, nil); err != nil || string(buf) != "v2" {
		t.Fatalf("recovered page: %q, %v", buf, err)
	}
}

func TestPagerCheckpointFailureIsStickyAndRecoverable(t *testing.T) {
	base := NewMemVFS()
	p := mustOpen(t, base, "t.db", PageSize1K, PagerOptions{Sleep: noSleep, CheckpointEvery: 1})
	id := p.Allocate()
	if err := p.Write(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	p.SetRoot(id)
	// The commit's WAL append and fsync succeed; the embedded auto-checkpoint
	// dies on the main-file fsync.  The transaction is durable, so Commit must
	// report success — and the checkpoint failure must break the pager.
	p.db = &failingSyncs{File: p.db, fails: 1}
	seq, err := p.Commit()
	if err != nil {
		t.Fatalf("durable commit reported failure: %v", err)
	}
	if seq != 1 {
		t.Fatalf("committed seq %d, want 1", seq)
	}
	// Every mutation refuses work on the broken pager: nothing staged after
	// the break could ever commit.
	if _, err := p.Commit(); !errors.Is(err, ErrPagerBroken) {
		t.Fatalf("commit on broken pager: %v", err)
	}
	if err := p.Checkpoint(); !errors.Is(err, ErrPagerBroken) {
		t.Fatalf("checkpoint on broken pager: %v", err)
	}
	if got := p.Allocate(); got != InvalidPage {
		t.Fatalf("Allocate on broken pager returned %d, want InvalidPage", got)
	}
	p.Free(id)
	if p.Len() != 1 {
		t.Fatalf("Free mutated a broken pager: Len = %d", p.Len())
	}
	p.SetRoot(InvalidPage)
	if p.Root() != id {
		t.Fatalf("SetRoot mutated a broken pager: root = %d", p.Root())
	}
	// The committed transaction survives a power cut: the WAL was synced
	// before the checkpoint began, so recovery replays it.
	base.Crash(11)
	q := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	defer q.Close()
	if q.Seq() != 1 {
		t.Fatalf("recovered seq %d, want 1", q.Seq())
	}
	if buf, err := q.Read(id, nil); err != nil || string(buf) != "v1" {
		t.Fatalf("recovered page: %q, %v", buf, err)
	}
}

func TestPagerNoLossAfterWALResetFailure(t *testing.T) {
	// The regression this pins: a checkpoint whose WAL reset fails used to
	// leave walSize stale, so the next commit appended past a gap the
	// recovery scan stops at — committed transactions silently vanished.
	// The failure must instead be sticky until a reopen.
	base := NewMemVFS()
	p := mustOpen(t, base, "t.db", PageSize1K, PagerOptions{Sleep: noSleep, CheckpointEvery: 1})
	id := p.Allocate()
	if err := p.Write(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Sync #1 is the group commit (must succeed); sync #2 is the WAL reset
	// of the embedded auto-checkpoint (dies).
	p.wal = &syncFailsOn{File: p.wal, n: 2}
	if _, err := p.Commit(); err != nil {
		t.Fatalf("durable commit reported failure: %v", err)
	}
	// The pager must refuse further commits rather than append at the stale
	// WAL offset.
	if err := p.Write(id, []byte("v2")); !errors.Is(err, ErrPagerBroken) {
		t.Fatalf("write on broken pager: %v", err)
	}
	// Reopening re-derives the WAL state; new commits land and recover.
	q := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	if buf, err := q.Read(id, nil); err != nil || string(buf) != "v1" {
		t.Fatalf("page after reopen: %q, %v", buf, err)
	}
	if err := q.Write(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	defer r.Close()
	if buf, err := r.Read(id, nil); err != nil || string(buf) != "v2" {
		t.Fatalf("commit after recovery lost: %q, %v", buf, err)
	}
}

func TestPagerFullReadWithEOFIsSuccess(t *testing.T) {
	// io.ReaderAt allows (len(p), io.EOF) for a read ending exactly at
	// end-of-file; the retry loop must treat a full buffer as success.
	base := NewMemVFS()
	p := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	id := p.Allocate()
	if err := p.Write(id, []byte("edge")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	q := mustOpen(t, base, "t.db", PageSize1K, testPagerOptions())
	defer q.Close()
	q.db = eofFile{q.db}
	if buf, err := q.Read(id, nil); err != nil || string(buf) != "edge" {
		t.Fatalf("full read with io.EOF: %q, %v", buf, err)
	}
	if n := q.Stats().ReadRetries; n != 0 {
		t.Fatalf("full read with io.EOF burned %d retries", n)
	}
}

// eofFile returns io.EOF alongside every full read, as io.ReaderAt permits.
type eofFile struct{ File }

func (f eofFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if err == nil && n == len(p) {
		return n, io.EOF
	}
	return n, err
}

// failingSyncs fails the first `fails` Sync calls, then passes through.
type failingSyncs struct {
	File
	fails int
}

func (f *failingSyncs) Sync() error {
	if f.fails > 0 {
		f.fails--
		return ErrInjectedSync
	}
	return f.File.Sync()
}

// syncFailsOn fails the n-th Sync call (1-based) and passes the rest through.
type syncFailsOn struct {
	File
	n, count int
}

func (f *syncFailsOn) Sync() error {
	f.count++
	if f.count == f.n {
		return ErrInjectedSync
	}
	return f.File.Sync()
}

// failingWrites fails every write; reads pass through.
type failingWrites struct{ File }

func (f *failingWrites) WriteAt(p []byte, off int64) (int, error) { return 0, ErrInjectedWrite }

func TestPagerErrors(t *testing.T) {
	p := mustOpen(t, NewMemVFS(), "t.db", PageSize1K, testPagerOptions())
	defer p.Close()
	if err := p.Write(99, []byte("x")); !errors.Is(err, ErrUnknownPage) {
		t.Fatalf("write to unallocated page: %v", err)
	}
	if _, err := p.Read(99, nil); !errors.Is(err, ErrUnknownPage) {
		t.Fatalf("read of unallocated page: %v", err)
	}
	id := p.Allocate()
	if err := p.Write(id, make([]byte, PageSize1K+1)); !errors.Is(err, ErrPageOverflow) {
		t.Fatalf("oversized write: %v", err)
	}
	p.Free(99) // no-op, must not panic
	p.Free(id)
	p.Free(id) // double free is a no-op
	if _, err := OpenPager(NewMemVFS(), "tiny.db", 8, testPagerOptions()); err == nil {
		t.Fatal("tiny page size accepted")
	}
}

func TestWALCodecRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendWALHeader(buf, PageSize1K)
	buf = appendPageRecord(buf, 7, []byte("page seven"))
	buf = appendPageRecord(buf, 9, []byte("page nine"))
	buf = appendCommitRecord(buf, walCommit{Seq: 3, Next: 10, FreeHead: 2, Root: 7, Pages: 2})

	var gotPages []walPage
	var gotCommit walCommit
	n, err := scanWAL(buf, PageSize1K, func(pages []walPage, c walCommit) error {
		gotPages = append(gotPages, pages...)
		gotCommit = c
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("scan: %d txns, %v", n, err)
	}
	if len(gotPages) != 2 || gotPages[0].ID != 7 || string(gotPages[1].Data) != "page nine" {
		t.Fatalf("pages: %+v", gotPages)
	}
	if gotCommit.Seq != 3 || gotCommit.Root != 7 || gotCommit.FreeHead != 2 || gotCommit.Next != 10 {
		t.Fatalf("commit: %+v", gotCommit)
	}
}

func TestWALScanStopsAtTornTail(t *testing.T) {
	var buf []byte
	buf = appendWALHeader(buf, PageSize1K)
	buf = appendPageRecord(buf, 1, []byte("committed"))
	buf = appendCommitRecord(buf, walCommit{Seq: 1, Next: 2, Pages: 1})
	whole := len(buf)
	buf = appendPageRecord(buf, 2, []byte("torn away"))
	buf = appendCommitRecord(buf, walCommit{Seq: 2, Next: 3, Pages: 1})

	for cut := whole; cut < len(buf); cut++ {
		n, err := scanWAL(buf[:cut], PageSize1K, func([]walPage, walCommit) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n != 1 {
			t.Fatalf("cut %d: %d txns replayed, want 1 (the committed prefix)", cut, n)
		}
	}
	// A page record without its commit is not replayed either.
	n, _ := scanWAL(buf[:whole+walRecHeaderSize+pageRecOverhead+9], PageSize1K,
		func([]walPage, walCommit) error { return nil })
	if n != 1 {
		t.Fatalf("uncommitted page record replayed: %d txns", n)
	}
	// A flipped bit in the committed region ends the scan at the flip.
	evil := append([]byte(nil), buf[:whole]...)
	evil[walHeaderSize+walRecHeaderSize] ^= 0x01
	if n, _ := scanWAL(evil, PageSize1K, func([]walPage, walCommit) error { return nil }); n != 0 {
		t.Fatalf("corrupted record replayed: %d txns", n)
	}
}
