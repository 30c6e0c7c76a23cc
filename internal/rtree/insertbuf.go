package rtree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/zorder"
)

// Hilbert-buffered insertion.
//
// Dynamic R*-tree construction is CPU-bound in ChooseSubtree's
// overlap-enlargement scan: every insert descends from the root and, at the
// leaf-parent level, measures for up to 32 candidate entries how much their
// overlap with the siblings would grow.  A scanned candidate tests only the
// siblings in its x-window (the node's sibling order, siblingorder.go), only
// the siblings its enlarged rectangle overlaps cost intersection areas, a
// candidate that already contains the rectangle costs nothing, a scan stops
// once the candidate has lost, and once a candidate with zero overlap growth
// is found only candidates that could still win on the tie-breakers are
// scanned (chooseSubtree, overlapEnlargement).  In the worst case that is
// still O(candidates × fan-out) per insert, and an arbitrary insertion order
// pays the descent for every single rectangle.
//
// The insertion buffer stages inserts, sorts each batch by the Hilbert key of
// the rectangle centres — the same curve the spatial join partitioner uses —
// and applies them in curve order.  Spatially consecutive inserts
// overwhelmingly land in the same leaf, so the buffer seeds each insert from
// the leaf the previous one chose: while the staged rectangle leaves that
// leaf's MBR unchanged and the leaf has room, the entry is appended directly
// — no directory rectangle grows (the rectangle is covered), no node
// overflows (capacity was checked), so the tree's invariants are untouched
// and the whole root-to-leaf descent with its overlap scan is skipped.  This
// is the disk-resident update batching of EMBANKS-style buffer trees reduced
// to its in-memory essence: buffer, order spatially, apply in locality
// order.
//
// Buffered insertion produces a different (but equally valid) tree shape than
// plain insertion order — exactly as any insertion order does.  The tree
// passes the full structural validation and yields bit-identical join results
// (insertbuf_test.go and the join-level identity tests pin both).  Plain
// Insert is not changed in any way; the structural parity goldens of
// parity_test.go keep guarding that.

// DefaultInsertBufferCapacity is the batch size used when NewInsertBuffer is
// given a non-positive capacity.  4096 staged rectangles sort in microseconds
// and give the Hilbert order enough run length for the leaf hint to pay off.
const DefaultInsertBufferCapacity = 4096

// DefaultHintFillPercent caps how full the leaf-hint fast path packs a leaf,
// as a percentage of the page capacity.  Appending up to the raw capacity
// packs hint-run leaves to 100%, so the very next insert or a later update in
// that region forces an immediate split — the same reason the bulk loader
// stops at BulkLoadFill.  90% matches BulkLoadFill and leaves every hint-built
// leaf the same headroom a packed leaf gets.
const DefaultHintFillPercent = 90

// stagedOp is one buffered mutation: an insert or, with del set, a delete of
// exactly the given rectangle and object identifier.
type stagedOp struct {
	item Item
	del  bool
}

// InsertBuffer stages inserts — and deletes, EMBANKS-style — for one tree
// and applies each batch as a single Hilbert-ordered round: all staged
// mutations are sorted by the Hilbert key of their rectangle centres and
// applied in curve order, so spatially neighbouring inserts and deletes land
// together and the leaf-hint fast path keeps its run length even through
// mixed batches.  Stable sorting keeps equal-key operations in staging
// order, so an insert staged after a delete of the same rectangle still
// applies after it.
//
// It is not safe for concurrent use, mirroring the tree's mutation contract.
// Mutating the tree directly between Stage and Flush is allowed: the buffer
// detects the interleaved mutation through the tree's mutation counter and
// drops its leaf hint instead of touching a node the mutation may have
// dissolved.  Applied deletes advance the same counter, so a staged delete
// that lands in (or dissolves) the hinted leaf invalidates the hint before
// the next buffered insert can append to it.
type InsertBuffer struct {
	t        *Tree
	capacity int
	hintFill int // max entries the fast path fills a leaf to

	ops   []stagedOp
	order []hilbertKeyed

	// Leaf hint: the leaf the previous applied insert landed in, its MBR, and
	// the tree mutation epoch the hint was taken at.
	hint      *Node
	hintMBR   geom.Rect
	hintEpoch int64

	staged       int
	applied      int
	hintHits     int
	flushes      int
	deletes      int // staged deletes
	deletesDone  int // applied deletes that found their entry
	deleteMisses int // applied deletes whose entry was not in the tree
}

// NewInsertBuffer returns an insertion buffer over t that flushes
// automatically whenever capacity rectangles are staged (capacity <= 0 means
// DefaultInsertBufferCapacity).
func NewInsertBuffer(t *Tree, capacity int) *InsertBuffer {
	if capacity <= 0 {
		capacity = DefaultInsertBufferCapacity
	}
	// 90% of M is at least the minimum fill m <= M/2, so the fast path
	// always leaves a structurally valid leaf behind.
	return &InsertBuffer{t: t, capacity: capacity, hintFill: t.maxEnt * DefaultHintFillPercent / 100}
}

// Stage adds one rectangle to the buffer, flushing if the batch is full.  The
// rectangle is not visible in the tree until the flush that applies it.  It
// must be well formed, as for Tree.Insert; Stage does not check it.
func (b *InsertBuffer) Stage(rect geom.Rect, data int32) {
	b.ops = append(b.ops, stagedOp{item: Item{Rect: rect, Data: data}})
	b.staged++
	if len(b.ops) >= b.capacity {
		b.Flush()
	}
}

// StageDelete stages the removal of one data entry with exactly the given
// rectangle and object identifier, flushing if the batch is full.  The entry
// stays visible in the tree until the flush that applies the delete; a
// staged delete of an entry the tree does not hold (or that a staged insert
// of the same batch has not yet applied, if it sorts later) counts as a
// delete miss, mirroring Tree.Delete's return value.
func (b *InsertBuffer) StageDelete(rect geom.Rect, data int32) {
	b.ops = append(b.ops, stagedOp{item: Item{Rect: rect, Data: data}, del: true})
	b.staged++
	b.deletes++
	if len(b.ops) >= b.capacity {
		b.Flush()
	}
}

// Len returns the number of staged, not yet applied mutations.
func (b *InsertBuffer) Len() int { return len(b.ops) }

// Staged returns the total number of mutations ever staged.
func (b *InsertBuffer) Staged() int { return b.staged }

// Applied returns the total number of rectangles inserted into the tree.
func (b *InsertBuffer) Applied() int { return b.applied }

// StagedDeletes returns the total number of deletes ever staged.
func (b *InsertBuffer) StagedDeletes() int { return b.deletes }

// DeletesApplied returns the number of applied deletes that found and
// removed their entry.
func (b *InsertBuffer) DeletesApplied() int { return b.deletesDone }

// DeleteMisses returns the number of applied deletes whose entry was not in
// the tree at apply time.
func (b *InsertBuffer) DeleteMisses() int { return b.deleteMisses }

// HintHits returns how many applied inserts took the leaf-hint fast path
// (appended to the previous insert's leaf without a root descent).
func (b *InsertBuffer) HintHits() int { return b.hintHits }

// Flushes returns how many batches have been applied.
func (b *InsertBuffer) Flushes() int { return b.flushes }

// Flush sorts the staged mutations along the Hilbert curve of their centres
// and applies every one of them to the tree as one spatially-ordered mixed
// round (the apply order is a permutation of the staged batch; equal keys
// keep staging order).  A flush of an empty buffer is a no-op.
func (b *InsertBuffer) Flush() {
	if len(b.ops) == 0 {
		return
	}
	// The curve is laid over the union of the staged rectangles and the
	// tree's current bounds, so batch keys and tree geometry share one frame.
	world := b.ops[0].item.Rect
	for _, op := range b.ops[1:] {
		world = world.Union(op.item.Rect)
	}
	if bounds, ok := b.t.Bounds(); ok {
		world = world.Union(bounds)
	}
	b.order = b.order[:0]
	for i, op := range b.ops {
		b.order = append(b.order, hilbertKeyed{key: zorder.HilbertKey(op.item.Rect.Center(), world), idx: int32(i)})
	}
	// Stable on the staging order, so equal keys keep a deterministic order.
	slices.SortStableFunc(b.order, byHilbertKey)
	for _, k := range b.order {
		op := b.ops[k.idx]
		if op.del {
			b.applyDelete(op.item)
		} else {
			b.applyOne(op.item)
		}
	}
	b.ops = b.ops[:0]
	b.flushes++
}

// applyDelete removes one staged entry.  Tree.Delete advances the mutation
// counter, so the leaf hint — which may point at the very leaf the delete
// just shrank or dissolved — can never serve the next insert of the batch.
func (b *InsertBuffer) applyDelete(it Item) {
	if b.t.Delete(it.Rect, it.Data) {
		b.deletesDone++
	} else {
		b.deleteMisses++
	}
}

// applyOne inserts one rectangle, through the leaf-hint fast path when it
// applies and through a full (hint-reseeding) descent otherwise.
func (b *InsertBuffer) applyOne(it Item) {
	t := b.t
	b.applied++
	if b.hint != nil && b.hintEpoch == t.muts && b.hint.Level == 0 &&
		len(b.hint.Entries) > 0 && len(b.hint.Entries) < b.hintFill &&
		sameBits(b.hintMBR.Union(it.Rect), b.hintMBR) {
		// The rectangle leaves the hinted leaf's MBR bit for bit as it was
		// (it lies inside, and no -0 corner meets a +0 one), and the leaf
		// has room: appending it changes no directory rectangle and
		// overflows nothing, so the R-tree invariants hold without touching
		// the path above the leaf.
		b.hint.setEntries(append(b.hint.Entries, Entry{Rect: it.Rect, Data: it.Data}))
		t.size++
		t.muts++
		b.hintEpoch = t.muts
		b.hintHits++
		return
	}
	t.Insert(it.Rect, it.Data)
	// Seed the next insert from the leaf this one landed in.  The hint's MBR
	// is computed once here; hint hits cannot change it (they only append
	// covered rectangles) and any other mutation advances t.muts, which
	// invalidates the hint wholesale.
	b.hint = t.build.lastLeaf
	if b.hint != nil {
		b.hintMBR = b.hint.MBR()
	}
	b.hintEpoch = t.muts
}

// sameBits reports whether two rectangles have bit-identical corners, which
// tells +0 from -0 where Rect.Equal does not.
func sameBits(r, s geom.Rect) bool {
	return math.Float64bits(r.XL) == math.Float64bits(s.XL) && math.Float64bits(r.YL) == math.Float64bits(s.YL) &&
		math.Float64bits(r.XU) == math.Float64bits(s.XU) && math.Float64bits(r.YU) == math.Float64bits(s.YU)
}

// hilbertKeyed is one staged op's record in the flush's sort: the Hilbert
// key of its centre and its staging index.  slices.SortStableFunc moves the
// records as sort.Stable moved an index slice ordered by the same keys (see
// arena.go), so the apply order is the one it always was.
type hilbertKeyed struct {
	key uint64
	idx int32
}

// byHilbertKey orders records by ascending key.
func byHilbertKey(a, b hilbertKeyed) int { return cmp.Compare(a.key, b.key) }

// InsertItemsBuffered inserts all items through a Hilbert insertion buffer
// sized to the whole batch (one sort, maximum run length).  It is the
// update-heavy counterpart of InsertItems: same resulting contents, same
// invariants, measurably less ChooseSubtree work.
func (t *Tree) InsertItemsBuffered(items []Item) {
	if len(items) == 0 {
		return
	}
	b := NewInsertBuffer(t, len(items))
	for _, it := range items {
		b.Stage(it.Rect, it.Data)
	}
	b.Flush()
}

// BuildBuffered constructs a ready tree from items by Hilbert-buffered
// insertion: a dynamically built tree (the paper's construction method,
// unlike the bulk loaders' packing) at a fraction of the ChooseSubtree cost.
func BuildBuffered(opts Options, items []Item) (*Tree, error) {
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	t.InsertItemsBuffered(items)
	t.makeReady()
	return t, nil
}
