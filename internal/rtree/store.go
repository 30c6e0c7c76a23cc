package rtree

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// TreeStore binds a Tree to a durable storage.Pager and keeps the two in sync
// incrementally: Commit re-encodes the tree, writes only the pages whose
// bytes actually changed since the last commit (detected by checksum), frees
// the pages of dissolved nodes into the pager's free list, and seals
// everything as one pager transaction.  A crash at any moment therefore
// leaves the pager at the last committed tree state, recoverable by
// OpenTreeStore.
//
// TreeStore also implements the buffer tracker's PageReader contract: it
// translates the tree's node identifiers (which the join's counted I/O is
// keyed by) to the pager's page identifiers and performs the physical read,
// so counted and measured I/O describe the same pages.
//
// TreeStore serializes commits against reads with one RWMutex: Commit holds
// the write lock for the whole transaction, ReadPage and EpochReader hold
// the read lock across the pager read, so concurrent readers (server query
// workers) can never observe a half-committed page table.  Mutating the
// bound tree itself still follows the tree's single-writer contract.
type TreeStore struct {
	t *Tree
	p *storage.Pager

	mu sync.RWMutex
	//repro:guardedBy mu
	byNode map[storage.PageID]storage.PageID // node id -> pager page
	//repro:guardedBy mu
	owner map[storage.PageID]storage.PageID // pager page -> node id
	//repro:guardedBy mu
	crcs map[storage.PageID]uint32 // pager page -> checksum of last written payload

	// seq counts commits through this store; writtenAt records, per node
	// identifier, the seq whose commit last changed (or freed) its bytes.
	// EpochReader uses the pair to decide which pages still carry a
	// snapshot's state and which must be served from the snapshot's nodes.
	//repro:guardedBy mu
	seq uint64
	//repro:guardedBy mu
	writtenAt map[storage.PageID]uint64

	// cache, when attached, is kept write-through-consistent: every page a
	// commit rewrites or frees is invalidated under the commit lock.
	cache     *buffer.PageCache
	cacheTree int
}

// CommitStats describes one TreeStore commit.
type CommitStats struct {
	Seq          uint64         // pager sequence number of the transaction
	Root         storage.PageID // pager page of the tree root
	PagesWritten int            // pages whose bytes changed (or are new)
	PagesClean   int            // live pages skipped because their bytes were unchanged
	PagesFreed   int            // pages of dissolved nodes returned to the free list
}

// NewTreeStore binds t to p.  The pager must be empty of tree pages for this
// tree (a fresh pager, or one whose previous contents are being abandoned);
// use OpenTreeStore to resume from a pager that already holds a tree.  The
// first Commit writes every node.
func NewTreeStore(t *Tree, p *storage.Pager) (*TreeStore, error) {
	if p.PageSize() != t.opts.PageSize {
		return nil, fmt.Errorf("rtree: pager page size %d does not match tree page size %d",
			p.PageSize(), t.opts.PageSize)
	}
	return &TreeStore{
		t:         t,
		p:         p,
		byNode:    make(map[storage.PageID]storage.PageID),
		owner:     make(map[storage.PageID]storage.PageID),
		crcs:      make(map[storage.PageID]uint32),
		writtenAt: make(map[storage.PageID]uint64),
	}, nil
}

// OpenTreeStore reconstructs the tree committed to p (rooted at the pager's
// root pointer) and binds it to a store whose diff state matches the disk, so
// the next Commit writes only what the caller mutates.  opts must carry the
// pager's page size.
func OpenTreeStore(p *storage.Pager, opts Options) (*TreeStore, error) {
	root := p.Root()
	if root == storage.InvalidPage {
		return nil, fmt.Errorf("rtree: pager holds no committed tree root")
	}
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	s, err := NewTreeStore(t, p)
	if err != nil {
		return nil, err
	}
	if err := s.load(root); err != nil {
		return nil, err
	}
	return s, nil
}

// load replaces the store's empty tree with the tree committed to its pager
// under the given root page, binding every node to the page it was read
// from and seeding the checksum diff as it goes, so unchanged nodes are
// never rewritten.  Every page is read once, through one reused frame.
//
// load never trusts the pages it reads: a checksum or decode failure is an
// error, a page referenced twice is an error, and a child whose stored level
// does not sit exactly one below its parent is an error.  Together these
// bound the recursion by the root's level and make load terminate on any
// input — corrupted or adversarial page graphs (cycles, diamonds, level
// loops) produce a wrapped error, never a crash or an endless walk.
//
//repro:locked
func (s *TreeStore) load(root storage.PageID) error {
	t := s.t
	frame := make([]byte, storage.FrameSize(t.opts.PageSize))
	node, size, err := s.loadNode(root, -1, make(map[storage.PageID]bool), frame)
	if err != nil {
		return err
	}
	t.root = node
	t.height = node.Level + 1
	t.size = size
	t.muts++ // the loaded nodes have no xl-orders: ready at the first Snapshot
	return nil
}

// loadNode reads the page with the given id into frame, decodes it, binds
// the new node to the page and recursively loads its children.  wantLevel
// is the level the parent expects (-1 for the root, whose level is read from
// its page); visited holds every page id already on or below the walked
// path, so a cycle or shared subtree is detected the moment it is
// re-entered.  It returns the node and the number of data entries below it.
// Loading runs once at open, before any join can observe the store, so its
// reads and decodes bypass the tracker by design.
//
//repro:io-boundary
//repro:locked
func (s *TreeStore) loadNode(id storage.PageID, wantLevel int, visited map[storage.PageID]bool, frame []byte) (*Node, int, error) {
	t := s.t
	if visited[id] {
		return nil, 0, fmt.Errorf("rtree: page %d referenced twice (cycle or shared subtree): %w",
			id, storage.ErrCorruptPage)
	}
	visited[id] = true
	buf, err := s.p.Read(id, frame)
	if err != nil {
		return nil, 0, fmt.Errorf("rtree: reading page %d: %w", id, err)
	}
	dn, err := storage.DecodeNode(buf, t.opts.PageSize)
	if err != nil {
		return nil, 0, fmt.Errorf("rtree: decoding page %d: %w", id, err)
	}
	if wantLevel >= 0 && int(dn.Level) != wantLevel {
		return nil, 0, fmt.Errorf("rtree: page %d stores level %d, parent expects %d: %w",
			id, dn.Level, wantLevel, storage.ErrCorruptPage)
	}
	n := t.newNode(int(dn.Level))
	s.byNode[n.ID] = id
	s.owner[id] = n.ID
	s.crcs[id] = storage.Checksum(buf)
	if dn.Level == 0 {
		for _, de := range dn.Entries {
			n.Entries = append(n.Entries, Entry{Rect: de.Rect, Data: int32(de.Ref)})
		}
		return n, len(n.Entries), nil
	}
	// dn holds its own copy of the entries: the children below may reuse
	// the frame.
	total := 0
	for _, de := range dn.Entries {
		child, sub, err := s.loadNode(storage.PageID(de.Ref), int(dn.Level)-1, visited, frame)
		if err != nil {
			return nil, 0, err
		}
		n.Entries = append(n.Entries, Entry{Rect: de.Rect, Child: child})
		total += sub
	}
	return n, total, nil
}

// Tree returns the bound tree.
func (s *TreeStore) Tree() *Tree { return s.t }

// Pager returns the bound pager.
func (s *TreeStore) Pager() *storage.Pager { return s.p }

// Seq returns the number of commits performed through this store.
func (s *TreeStore) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// SetPageCache attaches a shared page cache to keep write-through
// consistent: every page a commit rewrites or frees is invalidated (keyed by
// node identifier under the given tree id, the key trackers use).  Pass nil
// to detach.
func (s *TreeStore) SetPageCache(c *buffer.PageCache, treeID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = c
	s.cacheTree = treeID
}

// Commit makes the tree's current state durable as one pager transaction and
// returns what it cost.  Only pages whose encoded bytes changed since the
// last commit are written; pages of nodes that no longer exist are freed.
// The whole transaction holds the store's write lock, so concurrent readers
// see either the previous or the new page table, never a mix.
func (s *TreeStore) Commit() (CommitStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.t
	seq := s.seq + 1

	// Pass 1: assign a pager page to every live node (children before
	// parents does not matter here — only the assignment must be complete
	// before parents encode their child references).
	live := make(map[storage.PageID]bool)
	t.Walk(func(n *Node) {
		live[n.ID] = true
		if _, ok := s.byNode[n.ID]; !ok {
			page := s.p.Allocate()
			s.byNode[n.ID] = page
			s.owner[page] = n.ID
		}
	})

	// Pass 2: free the pages of dissolved nodes first, so their identifiers
	// rejoin the free list in this same transaction.  Deterministic order
	// keeps commits reproducible run over run.
	var deadPages []storage.PageID
	//repolint:ignore determinism dead pages are collected unordered here and sorted just below
	for nodeID, page := range s.byNode {
		if !live[nodeID] {
			deadPages = append(deadPages, page)
		}
	}
	sort.Slice(deadPages, func(i, j int) bool { return deadPages[i] < deadPages[j] })
	for _, page := range deadPages {
		nodeID := s.owner[page]
		s.p.Free(page)
		delete(s.byNode, nodeID)
		delete(s.owner, page)
		delete(s.crcs, page)
		s.writtenAt[nodeID] = seq
		if s.cache != nil {
			s.cache.Invalidate(buffer.FrameKey{Tree: s.cacheTree, Page: nodeID})
		}
	}

	// Pass 3: encode every live node and write the ones whose bytes moved.
	stats := CommitStats{PagesFreed: len(deadPages)}
	var commitErr error
	t.Walk(func(n *Node) {
		if commitErr != nil {
			return
		}
		dn := storage.DiskNode{Level: uint16(n.Level)}
		for _, e := range n.Entries {
			ref := uint32(e.Data)
			if e.Child != nil {
				ref = uint32(s.byNode[e.Child.ID])
			}
			dn.Entries = append(dn.Entries, storage.DiskEntry{Rect: e.Rect, Ref: ref})
		}
		buf, err := storage.EncodeNode(dn, t.opts.PageSize)
		if err != nil {
			commitErr = fmt.Errorf("rtree: encoding node %d: %w", n.ID, err)
			return
		}
		page := s.byNode[n.ID]
		crc := storage.Checksum(buf)
		if prev, ok := s.crcs[page]; ok && prev == crc {
			stats.PagesClean++
			return
		}
		if err := s.p.Write(page, buf); err != nil {
			commitErr = fmt.Errorf("rtree: writing node %d to page %d: %w", n.ID, page, err)
			return
		}
		s.crcs[page] = crc
		s.writtenAt[n.ID] = seq
		if s.cache != nil {
			s.cache.Invalidate(buffer.FrameKey{Tree: s.cacheTree, Page: n.ID})
		}
		stats.PagesWritten++
	})
	if commitErr != nil {
		return stats, commitErr
	}

	stats.Root = s.byNode[t.root.ID]
	s.p.SetRoot(stats.Root)
	pagerSeq, err := s.p.Commit()
	if err != nil {
		return stats, err
	}
	s.seq = seq
	stats.Seq = pagerSeq
	return stats, nil
}

// ReadPage implements the buffer tracker's PageReader: it resolves the
// tree's node identifier to its pager page and reads it from disk.  Reading
// a node that was never committed is an error — the join must only ever
// touch committed state.  The read lock is held across the pager read, so a
// concurrent Commit cannot swap the page out from under the caller.  This is
// the sanctioned physical-read path: buffer.Tracker calls it on a counted
// miss, so the raw pager read below is exactly the measured I/O.  The page
// is read into buf as Pager.Read reads it; the payload aliases buf.
//
//repro:io-boundary
func (s *TreeStore) ReadPage(id storage.PageID, buf []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	page, ok := s.byNode[id]
	if !ok {
		return nil, fmt.Errorf("rtree: node %d has no committed page: %w", id, storage.ErrUnknownPage)
	}
	return s.p.Read(page, buf)
}
