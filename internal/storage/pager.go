package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Pager errors.
var (
	// ErrReadExhausted marks a page read that kept failing after every
	// scheduled retry; the underlying error is wrapped and surfaced, never
	// swallowed.
	ErrReadExhausted = errors.New("storage: page read retries exhausted")
	// ErrQuarantined is returned for pages whose frame failed its checksum:
	// the page is quarantined and reported, never silently decoded.
	ErrQuarantined = errors.New("storage: page quarantined")
	// ErrPagerBroken is returned for every operation after a write-back
	// failure left the main file behind the WAL; reopening the pager runs
	// recovery and clears the condition.
	ErrPagerBroken = errors.New("storage: pager needs recovery (reopen)")
)

// Page frame layout of the main file: slot i at offset i*frameSize holds
//
//	crc32 | length | payload (padded to pageSize)
//
// with the checksum covering length and payload.  Slot 0 is the pager's meta
// frame — conveniently, InvalidPage is 0, so client page ids map 1:1 onto
// slots.  Freed pages stay in the file as links of the free chain:
//
//	freeMagic | next free PageID
const (
	frameHeaderSize = 8
	freeMagic       = 0x46524545 // "FREE"

	pagerMagic   uint32 = 0x52504732 // "RPG2"
	pagerVersion uint32 = 1
	metaBodySize        = 4 + 4 + 4 + 4 + 4 + 4 + 8
)

// FrameSize returns the size of one page frame in the main file for the
// given page size: the checksum and length header plus the payload slot.
// A buffer of this size holds any page Pager.Read returns.
func FrameSize(pageSize int) int { return frameHeaderSize + pageSize }

// DefaultCheckpointEvery is the number of commits between automatic
// checkpoints (fsync the main file, truncate the WAL).
const DefaultCheckpointEvery = 8

// PagerOptions tunes durability and fault handling.
type PagerOptions struct {
	// ReadRetries is how many times a failed frame read is retried before
	// the error surfaces (default 3).  Retries back off exponentially
	// starting at RetryBackoff (default 50µs).
	ReadRetries  int
	RetryBackoff time.Duration
	// Sleep is the backoff clock, injectable so fault tests run at full
	// speed.  Defaults to time.Sleep.
	Sleep func(time.Duration)
	// CheckpointEvery is the number of commits between automatic
	// checkpoints; 0 means DefaultCheckpointEvery, negative disables
	// automatic checkpoints (Close still checkpoints).
	CheckpointEvery int
}

func (o PagerOptions) withDefaults() PagerOptions {
	if o.ReadRetries == 0 {
		o.ReadRetries = 3
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 50 * time.Microsecond
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	return o
}

// PagerStats counts the real I/O the pager performed — the measured
// counterpart of the simulation's counted page accesses.
type PagerStats struct {
	Reads, Writes    int64 // frame reads/writes against the main file
	BytesRead        int64
	BytesWritten     int64
	ReadRetries      int64 // failed read attempts that were retried
	Commits          int64
	WALAppends       int64 // WAL write calls (one per group commit)
	WALBytes         int64
	Syncs            int64 // fsyncs across both files
	Checkpoints      int64
	RecoveredTxns    int64 // transactions replayed from the WAL at open
	RecoveredPages   int64
	Quarantined      int64
	ReadNanos        int64 // wall time inside main-file frame reads
	WriteNanos       int64 // wall time inside main-file frame writes
	SyncNanos        int64 // wall time inside fsyncs
	CommitNanos      int64 // wall time inside Commit (WAL append + apply)
	ReuseAllocations int64 // allocations served from the free list
	FreshAllocations int64
}

// Pager is a crash-safe file of fixed-size checksummed pages, the one page
// store R*-trees persist into (see rtree.TreeStore).  All mutations
// (Allocate, Write, Free, SetRoot) are staged in memory and become durable
// atomically at Commit, which appends one checksummed group of records to the write-ahead
// log, fsyncs it once, and only then writes the frames back to the main
// file.  Opening a pager replays every committed transaction left in the WAL
// (redo recovery), so a crash at any moment loses at most the uncommitted
// tail.  Torn or corrupted frames are detected by per-page checksums on
// read, quarantined and reported.  Freed pages form an on-disk chain and are
// reused by Allocate.
//
// A Pager is safe for concurrent use.
type Pager struct {
	mu   sync.Mutex
	vfs  VFS
	db   File
	wal  File
	path string
	opts PagerOptions

	pageSize  int
	frameSize int

	next         PageID
	root         PageID
	seq          uint64
	freeList     []PageID // uncommitted-reuse stack: last element pops first
	metaFreeHead PageID   // committed head of the on-disk free chain
	alive        map[PageID]bool

	staged      map[PageID][]byte
	freed       map[PageID]bool
	metaDirty   bool
	walSize     int64
	sinceCkpt   int
	broken      error
	quarantined map[PageID]error

	stats PagerStats
}

// OpenPager opens (or creates) the page file at path on the given VFS, with
// its WAL at path+".wal".  Opening an existing file replays any committed
// transactions left in the WAL and rebuilds the free list; opening a fresh
// path initialises an empty, durable file.
func OpenPager(fs VFS, path string, pageSize int, opts PagerOptions) (*Pager, error) {
	if CapacityForPage(pageSize) < 1 {
		return nil, fmt.Errorf("storage: page size %d too small", pageSize)
	}
	p := &Pager{
		vfs:         fs,
		path:        path,
		opts:        opts.withDefaults(),
		pageSize:    pageSize,
		frameSize:   FrameSize(pageSize),
		next:        1,
		alive:       make(map[PageID]bool),
		staged:      make(map[PageID][]byte),
		freed:       make(map[PageID]bool),
		quarantined: make(map[PageID]error),
	}
	var err error
	if p.db, err = fs.Open(path); err != nil {
		return nil, fmt.Errorf("storage: opening %s: %w", path, err)
	}
	if p.wal, err = fs.Open(path + ".wal"); err != nil {
		p.db.Close()
		return nil, fmt.Errorf("storage: opening %s.wal: %w", path, err)
	}
	if err := p.open(); err != nil {
		p.db.Close()
		p.wal.Close()
		return nil, err
	}
	return p, nil
}

// open initialises a fresh file or recovers an existing one.
func (p *Pager) open() error {
	size, err := p.db.Size()
	if err != nil {
		return fmt.Errorf("storage: sizing %s: %w", p.path, err)
	}
	if size == 0 {
		return p.initFresh()
	}

	// Read the meta frame.  A torn or short meta frame is survivable as long
	// as the WAL holds a commit record to restore it from — that is
	// precisely the mid-checkpoint (or mid-first-init) crash window.
	metaOK := true
	metaErr := p.readMeta()
	if metaErr != nil {
		if errors.Is(metaErr, ErrPageSizeAgain) {
			return metaErr // a healthy file opened with the wrong page size
		}
		metaOK = false
	}

	// Redo pass: replay every committed transaction left in the WAL.
	walSize, err := p.wal.Size()
	if err != nil {
		return fmt.Errorf("storage: sizing WAL: %w", err)
	}
	walBuf := make([]byte, walSize)
	if walSize > 0 {
		if _, err := p.readFullRetry(p.wal, walBuf, 0); err != nil {
			return fmt.Errorf("storage: reading WAL: %w", err)
		}
	}
	recovered, err := scanWAL(walBuf, p.pageSize, func(pages []walPage, c walCommit) error {
		for _, pg := range pages {
			if err := p.writeFrame(pg.ID, pg.Data); err != nil {
				return fmt.Errorf("storage: replaying page %d: %w", pg.ID, err)
			}
			p.stats.RecoveredPages++
		}
		p.seq, p.next, p.root = c.Seq, c.Next, c.Root
		p.metaFreeHead = c.FreeHead
		metaOK = true
		return nil
	})
	if err != nil {
		if !errors.Is(err, ErrWALHeader) {
			return err
		}
		// A torn WAL header means the crash hit before the first record of
		// this generation was durable: there is nothing to replay.
		recovered = 0
	}
	p.stats.RecoveredTxns = int64(recovered)
	if !metaOK {
		if recovered == 0 && size < int64(p.frameSize) {
			// The first meta write never became durable: the power failed
			// while the file was being created (a completed pager always has
			// a durable, full meta frame and a synced WAL header).  Start
			// the creation over.
			if err := p.db.Truncate(0); err != nil {
				return fmt.Errorf("storage: resetting interrupted init: %w", err)
			}
			return p.initFresh()
		}
		return fmt.Errorf("storage: %s: meta frame unreadable and no WAL commit to restore it: %w",
			p.path, metaErr)
	}
	if recovered > 0 {
		// The replayed state is now in the main file; make it durable and
		// start a fresh WAL generation.
		if err := p.checkpointLocked(); err != nil {
			return err
		}
		delete(p.quarantined, InvalidPage) // the meta frame was rebuilt
	} else if err := p.initWAL(); err != nil {
		// Reset the WAL even when nothing was replayed: a torn tail from the
		// crashed append must never sit in front of future commit records.
		return err
	}
	return p.loadFreeList()
}

// initFresh writes an empty, durable pager: meta frame, synced, WAL header,
// synced.
func (p *Pager) initFresh() error {
	if err := p.writeMeta(); err != nil {
		return err
	}
	if err := p.sync(p.db); err != nil {
		return err
	}
	return p.initWAL()
}

func (p *Pager) initWAL() error {
	hdr := appendWALHeader(nil, p.pageSize)
	if _, err := p.wal.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: writing WAL header: %w", err)
	}
	if err := p.wal.Truncate(int64(len(hdr))); err != nil {
		return fmt.Errorf("storage: truncating WAL: %w", err)
	}
	if err := p.sync(p.wal); err != nil {
		return err
	}
	p.walSize = int64(len(hdr))
	return nil
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// Stats returns a snapshot of the measured I/O counters.
func (p *Pager) Stats() PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Seq returns the sequence number of the last committed transaction.
func (p *Pager) Seq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq
}

// Root returns the client root pointer (InvalidPage until SetRoot).
func (p *Pager) Root() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.root
}

// SetRoot stages a new client root pointer; it becomes durable with the next
// Commit.  On a broken pager it is a no-op: nothing staged after the break
// can ever commit.
func (p *Pager) SetRoot(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return
	}
	if p.root != id {
		p.root = id
		p.metaDirty = true
	}
}

// Len returns the number of live (allocated, unfreed) pages.
func (p *Pager) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.alive)
}

// IDs returns the live page identifiers in ascending order.
func (p *Pager) IDs() []PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]PageID, 0, len(p.alive))
	for id := range p.alive {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Quarantined returns the identifiers of pages whose frames failed their
// checksum, in ascending order.
func (p *Pager) Quarantined() []PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]PageID, 0, len(p.quarantined))
	for id := range p.quarantined {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Allocate reserves a page id, reusing the free list first.  The allocation
// becomes durable with the next Commit.  A broken pager (see ErrPagerBroken)
// refuses all mutations and returns InvalidPage; any Write against it
// surfaces the underlying error.
func (p *Pager) Allocate() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return InvalidPage
	}
	var id PageID
	if n := len(p.freeList); n > 0 {
		// The stack top is the chain head; popping it promotes the next
		// link (still intact on disk) to head.
		id = p.freeList[n-1]
		p.freeList = p.freeList[:n-1]
		if n > 1 {
			p.metaFreeHead = p.freeList[n-2]
		} else {
			p.metaFreeHead = InvalidPage
		}
		p.stats.ReuseAllocations++
	} else {
		id = p.next
		p.next++
		p.stats.FreshAllocations++
	}
	p.alive[id] = true
	p.staged[id] = []byte{}
	delete(p.freed, id)
	delete(p.quarantined, id)
	p.metaDirty = true
	return id
}

// Write stages the page contents for id; they become durable with the next
// Commit.  The page must be live and buf must fit the page.
func (p *Pager) Write(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return p.broken
	}
	if !p.alive[id] {
		return fmt.Errorf("%w: %d", ErrUnknownPage, id)
	}
	if len(buf) > p.pageSize {
		return fmt.Errorf("%w: %d bytes exceed page size %d", ErrPageOverflow, len(buf), p.pageSize)
	}
	p.staged[id] = append([]byte(nil), buf...)
	delete(p.quarantined, id)
	return nil
}

// Free releases a live page.  The page joins the on-disk free chain at the
// next Commit and is immediately available to Allocate after that commit.
// Freeing an unknown or already freed page is a no-op.
// On a broken pager Free is also a no-op — the free could never commit.
func (p *Pager) Free(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil || !p.alive[id] {
		return
	}
	delete(p.alive, id)
	delete(p.staged, id)
	delete(p.quarantined, id)
	p.freed[id] = true
	p.metaDirty = true
}

// Read returns the contents of the page: staged bytes if the page was
// written since the last commit, otherwise the checksum-verified frame from
// disk.  Read errors are retried with exponential backoff and surfaced after
// exhaustion; checksum failures quarantine the page.
//
// The page is read into buf, which is grown when it holds fewer than
// FrameSize(PageSize()) bytes, and the returned payload aliases it: a
// caller that passes the same frame to every read allocates nothing, and
// the payload is valid until the caller's next read into that frame.  On
// an error no payload is returned, whatever buf now holds.
func (p *Pager) Read(id PageID, buf []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return nil, p.broken
	}
	if err, ok := p.quarantined[id]; ok {
		return nil, err
	}
	if staged, ok := p.staged[id]; ok {
		return append(buf[:0], staged...), nil
	}
	if !p.alive[id] {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPage, id)
	}
	return p.readFrame(id, buf)
}

// Commit makes every staged mutation durable as one atomic transaction: page
// images and free-chain links are appended to the WAL as a single
// checksummed group, the WAL is fsynced once (group commit), and only then
// are the frames written back to the main file.  It returns the committed
// sequence number.
//
// The error reports on the commit itself: a nil error means the transaction
// is durable, a non-nil error means it is not and the staged state is intact
// for a retry — unless the error is ErrPagerBroken, in which case the
// transaction was durably logged but the main file fell behind the WAL and
// the pager must be reopened (recovery replays the log).  A failed automatic
// checkpoint after a durable commit does not fail the commit: Commit returns
// nil and the checkpoint failure marks the pager broken, surfacing on every
// subsequent operation until a reopen.
func (p *Pager) Commit() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commitLocked()
}

func (p *Pager) commitLocked() (uint64, error) {
	if p.broken != nil {
		return p.seq, p.broken
	}
	if len(p.staged) == 0 && len(p.freed) == 0 && !p.metaDirty {
		return p.seq, nil
	}
	start := time.Now()

	// Deterministic record order: staged pages ascending, then the freed
	// pages ascending as links of the free chain.
	stagedIDs := make([]PageID, 0, len(p.staged))
	for id := range p.staged {
		stagedIDs = append(stagedIDs, id)
	}
	sort.Slice(stagedIDs, func(i, j int) bool { return stagedIDs[i] < stagedIDs[j] })
	freedIDs := make([]PageID, 0, len(p.freed))
	for id := range p.freed {
		freedIDs = append(freedIDs, id)
	}
	sort.Slice(freedIDs, func(i, j int) bool { return freedIDs[i] < freedIDs[j] })

	var buf []byte
	for _, id := range stagedIDs {
		buf = appendPageRecord(buf, id, p.staged[id])
	}
	head := p.metaFreeHead
	var freeFrames [][]byte
	for _, id := range freedIDs {
		link := make([]byte, 8)
		binary.LittleEndian.PutUint32(link[0:], freeMagic)
		binary.LittleEndian.PutUint32(link[4:], uint32(head))
		buf = appendPageRecord(buf, id, link)
		freeFrames = append(freeFrames, link)
		head = id
	}
	commit := walCommit{
		Seq:      p.seq + 1,
		Next:     p.next,
		FreeHead: head,
		Root:     p.root,
		Pages:    uint32(len(stagedIDs) + len(freedIDs)),
	}
	buf = appendCommitRecord(buf, commit)

	// Group commit: one append, one fsync.  On failure nothing moved — the
	// write offset stays, so a retry overwrites the partial tail.
	if n, err := p.wal.WriteAt(buf, p.walSize); err != nil {
		return p.seq, fmt.Errorf("storage: WAL append (%d of %d bytes): %w", n, len(buf), err)
	}
	if err := p.sync(p.wal); err != nil {
		return p.seq, fmt.Errorf("storage: WAL fsync: %w", err)
	}
	p.walSize += int64(len(buf))
	p.stats.WALAppends++
	p.stats.WALBytes += int64(len(buf))

	// The transaction is durable; write back the frames.  A write-back
	// failure leaves the main file behind the WAL — the pager is marked
	// broken and reopening replays the WAL.
	for _, id := range stagedIDs {
		if err := p.writeFrame(id, p.staged[id]); err != nil {
			p.broken = fmt.Errorf("%w: write-back of page %d: %w", ErrPagerBroken, id, err)
			return p.seq, p.broken
		}
	}
	for i, id := range freedIDs {
		if err := p.writeFrame(id, freeFrames[i]); err != nil {
			p.broken = fmt.Errorf("%w: write-back of freed page %d: %w", ErrPagerBroken, id, err)
			return p.seq, p.broken
		}
	}

	p.seq = commit.Seq
	p.metaFreeHead = commit.FreeHead
	clear(p.staged)
	for _, id := range freedIDs {
		delete(p.freed, id)
	}
	p.freeList = append(p.freeList, freedIDs...)
	p.metaDirty = false
	p.stats.Commits++
	p.stats.CommitNanos += time.Since(start).Nanoseconds()
	p.sinceCkpt++
	if p.opts.CheckpointEvery > 0 && p.sinceCkpt >= p.opts.CheckpointEvery {
		// The transaction is already durable in the WAL and applied to the
		// main file; an automatic-checkpoint failure is not a commit failure.
		// checkpointLocked marks the pager broken (sticky, surfaced by every
		// later operation until a reopen), so the durable commit is reported
		// truthfully here.
		_ = p.checkpointLocked()
	}
	return p.seq, nil
}

// Checkpoint makes the main file fully durable and truncates the WAL: meta
// frame written, main file fsynced, WAL reset to its header.  The ordering
// is the crash-safety invariant — the WAL is discarded only after everything
// it describes is durably in the main file.  Staged mutations are committed
// first so the checkpointed meta never describes uncommitted state.
func (p *Pager) Checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return p.broken
	}
	if len(p.staged) > 0 || len(p.freed) > 0 || p.metaDirty {
		if _, err := p.commitLocked(); err != nil {
			return err
		}
	}
	return p.checkpointLocked()
}

func (p *Pager) checkpointLocked() error {
	if p.broken != nil {
		return p.broken
	}
	// A failure anywhere in here is sticky: the meta frame, the main-file
	// durability and the WAL offset (p.walSize) are only consistent with the
	// files after every step succeeds.  In particular, if initWAL dies after
	// a partial header write or a failed truncate, appending at the stale
	// walSize would leave a gap the recovery scan stops at — silently losing
	// committed transactions.  Marking the pager broken forces a reopen,
	// which re-derives all of that state from the durable files.
	if err := p.writeMeta(); err != nil {
		p.broken = fmt.Errorf("%w: checkpoint meta write: %w", ErrPagerBroken, err)
		return p.broken
	}
	if err := p.sync(p.db); err != nil {
		p.broken = fmt.Errorf("%w: checkpoint fsync: %w", ErrPagerBroken, err)
		return p.broken
	}
	if err := p.initWAL(); err != nil {
		p.broken = fmt.Errorf("%w: checkpoint WAL reset: %w", ErrPagerBroken, err)
		return p.broken
	}
	p.sinceCkpt = 0
	p.stats.Checkpoints++
	return nil
}

// Close checkpoints and releases the files.  Staged, uncommitted mutations
// are discarded (commit first to keep them).
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	if p.broken == nil && len(p.staged) == 0 && len(p.freed) == 0 && !p.metaDirty {
		err = p.checkpointLocked()
	}
	if e := p.db.Close(); err == nil {
		err = e
	}
	if e := p.wal.Close(); err == nil {
		err = e
	}
	return err
}

// ---------------------------------------------------------------------------
// Frames, meta and the free chain
// ---------------------------------------------------------------------------

// writeFrame writes one checksummed frame (full slot, zero-padded).
func (p *Pager) writeFrame(id PageID, payload []byte) error {
	if len(payload) > p.pageSize {
		return fmt.Errorf("%w: %d bytes", ErrPageOverflow, len(payload))
	}
	frame := make([]byte, p.frameSize)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	copy(frame[frameHeaderSize:], payload)
	binary.LittleEndian.PutUint32(frame[0:], Checksum(frame[4:frameHeaderSize+len(payload)]))
	start := time.Now()
	n, err := p.db.WriteAt(frame, int64(id)*int64(p.frameSize))
	p.stats.WriteNanos += time.Since(start).Nanoseconds()
	if err != nil {
		return fmt.Errorf("storage: writing frame %d (%d of %d bytes): %w", id, n, len(frame), err)
	}
	p.stats.Writes++
	p.stats.BytesWritten += int64(len(frame))
	return nil
}

// readFrame reads and verifies one frame into buf (grown to a whole frame
// if it is shorter), retrying I/O errors with backoff, and returns the
// payload, which aliases buf.  Checksum failures quarantine the page.
func (p *Pager) readFrame(id PageID, buf []byte) ([]byte, error) {
	if cap(buf) < p.frameSize {
		buf = make([]byte, p.frameSize)
	}
	frame := buf[:p.frameSize]
	if _, err := p.readFullRetry(p.db, frame, int64(id)*int64(p.frameSize)); err != nil {
		return nil, fmt.Errorf("storage: reading frame %d: %w", id, err)
	}
	length := int(binary.LittleEndian.Uint32(frame[4:]))
	if length > p.pageSize {
		return nil, p.quarantine(id, fmt.Errorf("%w: frame %d declares %d payload bytes",
			ErrCorruptPage, id, length))
	}
	want := binary.LittleEndian.Uint32(frame[0:])
	if got := Checksum(frame[4 : frameHeaderSize+length]); got != want {
		return nil, p.quarantine(id, fmt.Errorf("%w: frame %d checksum %#x, want %#x (torn or corrupted page)",
			ErrCorruptPage, id, got, want))
	}
	return frame[frameHeaderSize : frameHeaderSize+length], nil
}

// quarantine records a corrupt page and returns its error; subsequent reads
// report it without touching the disk until the page is rewritten or freed.
func (p *Pager) quarantine(id PageID, cause error) error {
	err := fmt.Errorf("%w: page %d: %w", ErrQuarantined, id, cause)
	p.quarantined[id] = err
	p.stats.Quarantined++
	return err
}

// readFullRetry reads len(buf) bytes at off, retrying transient errors with
// exponential backoff and surfacing the final error after exhaustion.
func (p *Pager) readFullRetry(f File, buf []byte, off int64) (int, error) {
	backoff := p.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= p.opts.ReadRetries; attempt++ {
		if attempt > 0 {
			p.stats.ReadRetries++
			p.opts.Sleep(backoff)
			backoff *= 2
		}
		start := time.Now()
		n, err := f.ReadAt(buf, off)
		p.stats.ReadNanos += time.Since(start).Nanoseconds()
		if n == len(buf) {
			// A full buffer is success: the io.ReaderAt contract allows
			// (len(buf), io.EOF) when the read ends exactly at end-of-file.
			p.stats.Reads++
			p.stats.BytesRead += int64(n)
			return n, nil
		}
		if err == nil {
			err = fmt.Errorf("short read: %d of %d bytes", n, len(buf))
		}
		lastErr = err
	}
	return 0, fmt.Errorf("%w: %d attempts: %w", ErrReadExhausted, p.opts.ReadRetries+1, lastErr)
}

// writeMeta writes the meta frame from the in-memory state.
func (p *Pager) writeMeta() error {
	body := make([]byte, metaBodySize)
	binary.LittleEndian.PutUint32(body[0:], pagerMagic)
	binary.LittleEndian.PutUint32(body[4:], pagerVersion)
	binary.LittleEndian.PutUint32(body[8:], uint32(p.pageSize))
	binary.LittleEndian.PutUint32(body[12:], uint32(p.next))
	binary.LittleEndian.PutUint32(body[16:], uint32(p.metaFreeHead))
	binary.LittleEndian.PutUint32(body[20:], uint32(p.root))
	binary.LittleEndian.PutUint64(body[24:], p.seq)
	return p.writeFrame(InvalidPage, body)
}

// readMeta loads the meta frame.
func (p *Pager) readMeta() error {
	body, err := p.readFrame(InvalidPage, nil)
	if err != nil {
		return err
	}
	if len(body) != metaBodySize {
		return fmt.Errorf("%w: meta frame is %d bytes", ErrCorruptPage, len(body))
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != pagerMagic {
		return fmt.Errorf("%w: meta magic %#x", ErrCorruptPage, m)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != pagerVersion {
		return fmt.Errorf("%w: meta version %d", ErrCorruptPage, v)
	}
	if ps := int(binary.LittleEndian.Uint32(body[8:])); ps != p.pageSize {
		return fmt.Errorf("%w: file has %d-byte pages, want %d", ErrPageSizeAgain, ps, p.pageSize)
	}
	p.next = PageID(binary.LittleEndian.Uint32(body[12:]))
	p.metaFreeHead = PageID(binary.LittleEndian.Uint32(body[16:]))
	p.root = PageID(binary.LittleEndian.Uint32(body[20:]))
	p.seq = binary.LittleEndian.Uint64(body[24:])
	if p.next < 1 {
		p.next = 1
	}
	return nil
}

// loadFreeList walks the on-disk free chain into the in-memory stack and
// derives the live-page set.  The walk is cycle-guarded: a corrupt chain is
// an error, never an endless loop.
func (p *Pager) loadFreeList() error {
	seen := make(map[PageID]bool)
	var chain []PageID // head first
	frame := make([]byte, p.frameSize)
	for id := p.metaFreeHead; id != InvalidPage; {
		if seen[id] || id >= p.next || int64(len(chain)) > int64(p.next) {
			return fmt.Errorf("%w: free chain cycles at page %d", ErrCorruptPage, id)
		}
		seen[id] = true
		body, err := p.readFrame(id, frame)
		if err != nil {
			return fmt.Errorf("storage: free chain at page %d: %w", id, err)
		}
		if len(body) != 8 || binary.LittleEndian.Uint32(body[0:]) != freeMagic {
			return fmt.Errorf("%w: page %d is linked free but holds no free frame", ErrCorruptPage, id)
		}
		chain = append(chain, id)
		id = PageID(binary.LittleEndian.Uint32(body[4:]))
	}
	// Stack order: deepest link first so the head is popped first.
	p.freeList = p.freeList[:0]
	for i := len(chain) - 1; i >= 0; i-- {
		p.freeList = append(p.freeList, chain[i])
	}
	clear(p.alive)
	for id := PageID(1); id < p.next; id++ {
		if !seen[id] {
			p.alive[id] = true
		}
	}
	return nil
}

// sync fsyncs one file, charging the measured counters.
func (p *Pager) sync(f File) error {
	start := time.Now()
	err := f.Sync()
	p.stats.SyncNanos += time.Since(start).Nanoseconds()
	if err != nil {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	p.stats.Syncs++
	return nil
}
