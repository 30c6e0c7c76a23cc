package storage

import (
	"errors"
	"fmt"
	"sync"
)

// Injected fault errors.  ErrInjectedCrash marks the scripted power cut; the
// transient errors model the flaky reads, failed fsyncs and short writes a
// real disk produces under load.
var (
	ErrInjectedCrash = errors.New("storage: injected crash point")
	ErrInjectedRead  = errors.New("storage: injected read error")
	ErrInjectedSync  = errors.New("storage: injected fsync failure")
	ErrInjectedWrite = errors.New("storage: injected short write")
)

// FaultScript configures the deterministic fault injection of a FaultFS.
// All schedules count operations across every file of the FS, so a script
// replayed against the same workload always fires at the same points.
type FaultScript struct {
	// CrashAtOp is the 1-based operation index at which the power fails: the
	// operation returns ErrInjectedCrash without touching the disk, the
	// underlying MemVFS crashes (a seeded prefix of the unsynced writes
	// survives, the last one possibly torn) and every later operation fails
	// too.  Zero disables the crash point.
	CrashAtOp int64
	// TornSeed seeds the crash's torn-write cut.
	TornSeed int64
	// ReadErrEvery makes every k-th read attempt fail with ErrInjectedRead.
	// 1 fails every read (modelling a dead sector: retries are exhausted and
	// the error must surface); larger values model transient errors that a
	// retry recovers from.
	ReadErrEvery int64
	// ReadErrAfter, when positive, lets that many read attempts succeed
	// after the script is set and fails every later one with
	// ErrInjectedRead: a sector that dies in the middle of a run.
	ReadErrAfter int64
	// SyncErrEvery makes every k-th Sync fail with ErrInjectedSync without
	// making anything durable.
	SyncErrEvery int64
	// WriteShortEvery makes every k-th write a short write: only half the
	// buffer reaches the file and ErrInjectedWrite is returned.
	WriteShortEvery int64
}

// FaultFS wraps a MemVFS and injects the scripted faults.  The pager opened
// on top of it must detect, retry or surface every one of them; the
// crash-recovery harness (internal/experiments) uses the operation counter to
// enumerate crash points covering the entire WAL protocol.
type FaultFS struct {
	mu      sync.Mutex
	base    *MemVFS
	script  FaultScript
	ops     int64
	reads   int64
	writes  int64
	syncs   int64
	crashed bool
	// scriptReads counts the read attempts since the script was set.
	scriptReads int64
}

// NewFaultFS wraps base with the given script.
func NewFaultFS(base *MemVFS, script FaultScript) *FaultFS {
	return &FaultFS{base: base, script: script}
}

// SetScript replaces the fault script mid-run.  The operation counters keep
// counting, so schedules like ReadErrEvery stay deterministic across the
// switch (ReadErrAfter alone counts from it); a fired crash is not un-fired.  The server torture harness uses
// this to drive phased workloads (clean, then flaky reads, then a failing
// sync) over one filesystem.
func (f *FaultFS) SetScript(script FaultScript) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.script = script
	f.scriptReads = 0
}

// Ops returns the number of file operations observed so far (including the
// failing one, if the crash fired).
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the scripted crash point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Base returns the wrapped MemVFS; after a crash the harness reopens the
// pager directly on it to recover.
func (f *FaultFS) Base() *MemVFS { return f.base }

// step accounts one operation and fires the crash point if it is due.
func (f *FaultFS) step() error {
	if f.crashed {
		return ErrInjectedCrash
	}
	f.ops++
	if f.script.CrashAtOp > 0 && f.ops >= f.script.CrashAtOp {
		f.crashed = true
		f.base.Crash(f.script.TornSeed ^ f.script.CrashAtOp)
		return ErrInjectedCrash
	}
	return nil
}

// Open implements VFS.
func (f *FaultFS) Open(name string) (File, error) {
	base, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, f: base}, nil
}

// Remove implements VFS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	return f.base.Remove(name)
}

type faultFile struct {
	fs   *FaultFS
	name string
	f    File
}

func (x *faultFile) ReadAt(p []byte, off int64) (int, error) {
	x.fs.mu.Lock()
	if err := x.fs.step(); err != nil {
		x.fs.mu.Unlock()
		return 0, err
	}
	x.fs.reads++
	x.fs.scriptReads++
	if k := x.fs.script.ReadErrEvery; (k > 0 && x.fs.reads%k == 0) ||
		(x.fs.script.ReadErrAfter > 0 && x.fs.scriptReads > x.fs.script.ReadErrAfter) {
		x.fs.mu.Unlock()
		return 0, fmt.Errorf("%w: %s at %d", ErrInjectedRead, x.name, off)
	}
	x.fs.mu.Unlock()
	return x.f.ReadAt(p, off)
}

func (x *faultFile) WriteAt(p []byte, off int64) (int, error) {
	x.fs.mu.Lock()
	if err := x.fs.step(); err != nil {
		x.fs.mu.Unlock()
		return 0, err
	}
	x.fs.writes++
	short := false
	if k := x.fs.script.WriteShortEvery; k > 0 && x.fs.writes%k == 0 {
		short = true
	}
	x.fs.mu.Unlock()
	if short {
		n, err := x.f.WriteAt(p[:len(p)/2], off)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: %s at %d (%d of %d bytes)", ErrInjectedWrite, x.name, off, n, len(p))
	}
	return x.f.WriteAt(p, off)
}

func (x *faultFile) Sync() error {
	x.fs.mu.Lock()
	if err := x.fs.step(); err != nil {
		x.fs.mu.Unlock()
		return err
	}
	x.fs.syncs++
	if k := x.fs.script.SyncErrEvery; k > 0 && x.fs.syncs%k == 0 {
		x.fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrInjectedSync, x.name)
	}
	x.fs.mu.Unlock()
	return x.f.Sync()
}

func (x *faultFile) Truncate(size int64) error {
	x.fs.mu.Lock()
	if err := x.fs.step(); err != nil {
		x.fs.mu.Unlock()
		return err
	}
	x.fs.mu.Unlock()
	return x.f.Truncate(size)
}

func (x *faultFile) Size() (int64, error) {
	// Size is metadata, not disk traffic: it does not advance the fault
	// clock, so crash-point enumeration covers only operations that move or
	// persist bytes.
	x.fs.mu.Lock()
	if x.fs.crashed {
		x.fs.mu.Unlock()
		return 0, ErrInjectedCrash
	}
	x.fs.mu.Unlock()
	return x.f.Size()
}

func (x *faultFile) Close() error { return x.f.Close() }
