package rtree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// EpochReader is the measured-I/O page source for one published snapshot: it
// implements the buffer tracker's PageReader over the snapshot's epoch
// rather than the store's latest commit.  Pages whose bytes the writer has
// not touched since the snapshot are read physically through the pager —
// fault injection and I/O accounting reach them exactly as they reach the
// live tree.  Pages the writer rewrote or freed in a later commit no longer
// hold the snapshot's state on disk; those are served from a version store
// that lazily encodes the snapshot's own (immutable, copy-on-write shared)
// nodes.  Directory references in those reconstructed pages are the
// snapshot-internal node identifiers, which is exactly the keying the
// tracker reads by.
//
// Create the reader at a committed round boundary — a snapshot taken while
// the tree holds uncommitted mutations would disagree with the pages the
// pager still serves.  The reader is safe for concurrent use by many query
// workers.
type EpochReader struct {
	s    *TreeStore
	seq  uint64
	snap *Tree

	mu    sync.Mutex
	nodes map[storage.PageID]*Node  // lazily built: snapshot node id -> node
	enc   map[storage.PageID][]byte // lazily encoded version-store pages

	physical  atomic.Int64
	versioned atomic.Int64
}

// EpochReaderStats counts how the reader served its pages.
type EpochReaderStats struct {
	Physical  int64 // pages read through the pager (fault-injectable path)
	Versioned int64 // pages served from the snapshot's version store
}

// EpochReader returns a page source serving the given snapshot at the
// store's current commit sequence.  snap must be a Snapshot of the store's
// bound tree taken at this commit boundary.
func (s *TreeStore) EpochReader(snap *Tree) *EpochReader {
	return &EpochReader{s: s, seq: s.Seq(), snap: snap}
}

// Stats returns how many pages were served physically vs from the version
// store.
func (r *EpochReader) Stats() EpochReaderStats {
	return EpochReaderStats{Physical: r.physical.Load(), Versioned: r.versioned.Load()}
}

// ReadPage implements buffer.PageReader for the snapshot's epoch.  Like
// TreeStore.ReadPage it is the sanctioned physical-read path under the
// tracker: its raw pager read is the counted miss, into buf.  A page served
// from the version store is the reader's own immutable encoding, not buf.
//
//repro:io-boundary
func (r *EpochReader) ReadPage(id storage.PageID, buf []byte) ([]byte, error) {
	r.s.mu.RLock()
	page, bound := r.s.byNode[id]
	stale := r.s.writtenAt[id] > r.seq
	if bound && !stale {
		// The bytes on disk still carry the snapshot's state: real read,
		// under the read lock so a concurrent commit cannot swap the page.
		defer r.s.mu.RUnlock()
		r.physical.Add(1)
		return r.s.p.Read(page, buf)
	}
	r.s.mu.RUnlock()
	return r.versionedPage(id)
}

// versionedPage encodes (once) and serves a page the writer has moved past.
func (r *EpochReader) versionedPage(id storage.PageID) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if buf, ok := r.enc[id]; ok {
		r.versioned.Add(1)
		return buf, nil
	}
	if r.nodes == nil {
		r.nodes = make(map[storage.PageID]*Node)
		r.snap.Walk(func(n *Node) { r.nodes[n.ID] = n })
	}
	n, ok := r.nodes[id]
	if !ok {
		return nil, fmt.Errorf("rtree: node %d not in snapshot epoch %d: %w",
			id, r.seq, storage.ErrUnknownPage)
	}
	dn := storage.DiskNode{Level: uint16(n.Level)}
	for _, e := range n.Entries {
		ref := uint32(e.Data)
		if e.Child != nil {
			ref = uint32(e.Child.ID)
		}
		dn.Entries = append(dn.Entries, storage.DiskEntry{Rect: e.Rect, Ref: ref})
	}
	buf, err := storage.EncodeNode(dn, r.snap.opts.PageSize)
	if err != nil {
		return nil, fmt.Errorf("rtree: encoding snapshot node %d: %w", id, err)
	}
	if r.enc == nil {
		r.enc = make(map[storage.PageID][]byte)
	}
	r.enc[id] = buf
	r.versioned.Add(1)
	return buf, nil
}
