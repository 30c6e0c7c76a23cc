package rtree

// Copy-on-write epoch snapshots.
//
// The concurrent join server (internal/server) lets thousands of readers join
// against a tree while a single writer applies Hilbert-ordered mutation
// batches.  Readers must never observe a half-applied batch, and the writer
// must never stall behind a slow reader, so the tree supports epoch-based
// copy-on-write node versioning:
//
//   - Snapshot() publishes the current tree as an immutable version: a
//     lightweight Tree view sharing every node, and an epoch fence (cowEpoch)
//     that splits the node population into "shared with some snapshot"
//     (node.epoch < cowEpoch) and "private to the writer" (node.epoch ==
//     cowEpoch).
//   - Every mutating descent first takes ownership of the nodes it is about
//     to touch (ownRoot/ownChild): a shared node is replaced by a private
//     copy — same page identifier, same entries — linked into the (already
//     owned) parent; a private node is mutated in place, exactly as before.
//
// Because ownership is only ever checked against the *latest* snapshot
// epoch, and a node reachable from snapshot k carries an epoch stamp <= k <
// cowEpoch, every node of every published snapshot is immutable forever: old
// epochs stay consistent however long a reader parks on them, and they are
// garbage collected when the last reader drops the snapshot.
//
// The copies keep their node's page identifier on purpose: a COW copy is
// logically the same page with new bytes, which is exactly what the
// incremental TreeStore commit wants to see (the page diffs dirty and is
// rewritten in place), and what keeps the join's counted I/O comparable
// across snapshots.  In-memory node identifiers are never recycled, so two
// *live* nodes never alias; only successive versions of one logical page
// share an identifier.
//
// While no snapshot has ever been taken (cowEpoch == 0, every node stamped
// 0), ownership checks short-circuit to "already owned" and the mutation
// paths are bit-identical to the pre-snapshot code — the structural parity
// goldens pin that.

// Snapshot makes the tree ready and publishes its state as an immutable,
// read-only Tree sharing all nodes and the tree's identifier (the same
// logical pages, keyed identically by buffers and page caches).  Later
// mutations of the receiver copy a shared node before touching it, so the
// snapshot never changes, and concurrent read-only use of it (searches,
// joins, CatalogStats) writes nothing.  Mutating the snapshot is not
// supported.  Snapshot advances the mutation counter, which drops any
// insertion-buffer leaf hint (the hinted leaf is now shared); the receiver
// stays ready.
func (t *Tree) Snapshot() *Tree {
	if !t.Ready() {
		t.makeReady()
	}
	snap := &Tree{id: t.id, opts: t.opts, maxEnt: t.maxEnt, minEnt: t.minEnt,
		root: t.root, height: t.height, size: t.size, cat: t.cat}
	t.cowEpoch++
	t.muts++ // invalidate leaf hints: their leaf is now shared
	t.ready = t.muts
	return snap
}

// Ready reports whether the tree is join-ready: nothing has mutated it since
// the writer last made it ready (New, BulkLoadSTR, Build, BuildBuffered,
// Snapshot), so every node carries its xl-order and the catalog is walked.
// A tree OpenTreeStore loads is ready at its first Snapshot.
func (t *Tree) Ready() bool { return t.ready == t.muts }

// makeReady builds the xl-order of every writer-private node that lacks one,
// walks the catalog and marks the tree ready.  A node shared with a
// published snapshot, and with it its subtree, was ready when that snapshot
// was, so the walk descends only through the nodes the writer created or
// copied since (epoch == cowEpoch): a round pays for the nodes it changed.
func (t *Tree) makeReady() {
	t.readyNode(t.root)
	t.cat = t.walkCatalog()
	t.ready = t.muts
}

func (t *Tree) readyNode(n *Node) {
	if n.epoch != t.cowEpoch {
		return
	}
	if n.xlOrder == nil {
		n.xlOrder = buildXLOrder(n.Entries)
	}
	for _, e := range n.Entries {
		if e.Child != nil {
			t.readyNode(e.Child)
		}
	}
}

// ownRoot makes the root node private to the current write epoch, copying it
// if it is shared with a snapshot, and returns the (possibly new) root.
func (t *Tree) ownRoot() *Node {
	if t.root.epoch != t.cowEpoch {
		t.root = t.copyNode(t.root)
	}
	return t.root
}

// ownChild makes the idx-th child of n private to the current write epoch,
// relinking the copy into n (which must already be owned), and returns it.
func (t *Tree) ownChild(n *Node, idx int) *Node {
	child := n.Entries[idx].Child
	if child.epoch != t.cowEpoch {
		child = t.copyNode(child)
		n.Entries[idx].Child = child
	}
	return child
}

// copyNode returns a private copy of a shared node: same page identifier and
// level, entries copied into a fresh slice with overflow headroom, stamped
// with the current write epoch.  A valid sibling order comes along, so a
// leaf-parent's copy does not re-sort its entries; the xl-order does not.
func (t *Tree) copyNode(n *Node) *Node {
	capEnt := t.maxEnt + 1
	if len(n.Entries) > capEnt {
		capEnt = len(n.Entries)
	}
	c := &Node{ID: n.ID, Level: n.Level, epoch: t.cowEpoch}
	c.Entries = append(make([]Entry, 0, capEnt), n.Entries...)
	c.sib = n.sib.clone(capEnt)
	return c
}
