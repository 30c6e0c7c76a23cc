package rtree

import (
	"errors"
	"fmt"
)

// Validation errors.
var (
	ErrInvalidMBR     = errors.New("rtree: directory rectangle is not its child's MBR")
	ErrUnderflow      = errors.New("rtree: node below minimum fill")
	ErrOverflow       = errors.New("rtree: node above capacity")
	ErrUnbalanced     = errors.New("rtree: leaves at different depths")
	ErrLevelMismatch  = errors.New("rtree: child level inconsistent")
	ErrEntryCountDrop = errors.New("rtree: data entry count mismatch")
	ErrRootInvalid    = errors.New("rtree: root violates minimum children requirement")
	ErrStaleOrder     = errors.New("rtree: node's xl-order does not match its entries")
	ErrNotReady       = errors.New("rtree: ready tree has a node without an xl-order")
	ErrMalformedEntry = errors.New("rtree: entry rectangle is not well formed")
)

// CheckInvariants verifies the structural invariants of the R-tree definition
// (section 3.1 of the paper):
//
//   - the root has at least two children unless it is a leaf,
//   - every non-root node holds between m and M entries,
//   - all leaves are at the same distance from the root,
//   - every directory rectangle covers all rectangles of its child node
//     (and is the child's MBR bit for bit, so the sign of a zero corner
//     matches too),
//   - the stored data-entry count matches the tree's size,
//   - every entry rectangle is well formed (geom.Rect.WellFormed): the
//     sweep's window and the kNN leaf kernel are exact only on such
//     rectangles, and the insert paths take them on trust,
//   - every node that has an xl-order (see XLOrder) has the one a fresh sort
//     of its current entries produces — a mutation that forgot to drop the
//     order shows up here — and every valid sibling order (the writer's,
//     see siblingOrder) lists the entries in ascending XL with the running
//     maximum of XU they give,
//   - on a ready tree (Ready), every node has an xl-order.
//
// It returns nil if the tree is structurally sound.
func (t *Tree) CheckInvariants() error {
	if !t.root.IsLeaf() && len(t.root.Entries) < 2 {
		return fmt.Errorf("%w: %d children", ErrRootInvalid, len(t.root.Entries))
	}
	if t.root.Level != t.height-1 {
		return fmt.Errorf("%w: root level %d, height %d", ErrLevelMismatch, t.root.Level, t.height)
	}
	count, err := t.checkNode(t.root, t.root.Level)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("%w: counted %d, size %d", ErrEntryCountDrop, count, t.size)
	}
	return nil
}

// checkNode validates the subtree rooted at n and returns the number of data
// entries it holds.
func (t *Tree) checkNode(n *Node, wantLevel int) (int, error) {
	if n.Level != wantLevel {
		return 0, fmt.Errorf("%w: node %d has level %d, want %d", ErrLevelMismatch, n.ID, n.Level, wantLevel)
	}
	if len(n.Entries) > t.maxEnt {
		return 0, fmt.Errorf("%w: node %d holds %d > %d entries", ErrOverflow, n.ID, len(n.Entries), t.maxEnt)
	}
	if n != t.root && len(n.Entries) < t.minEnt {
		return 0, fmt.Errorf("%w: node %d holds %d < %d entries", ErrUnderflow, n.ID, len(n.Entries), t.minEnt)
	}
	for i, e := range n.Entries {
		if !e.Rect.WellFormed() {
			return 0, fmt.Errorf("%w: node %d entry %d is %v", ErrMalformedEntry, n.ID, i, e.Rect)
		}
	}
	if n.xlOrder != nil {
		if err := checkXLOrder(n, n.xlOrder); err != nil {
			return 0, err
		}
	} else if t.Ready() {
		return 0, fmt.Errorf("%w: node %d", ErrNotReady, n.ID)
	}
	if n.sib != nil && n.sib.valid {
		if err := checkSiblingOrder(n, n.sib); err != nil {
			return 0, err
		}
	}
	if n.IsLeaf() {
		return len(n.Entries), nil
	}
	total := 0
	for _, e := range n.Entries {
		if e.Child == nil {
			return 0, fmt.Errorf("%w: directory entry of node %d has no child", ErrLevelMismatch, n.ID)
		}
		childMBR := e.Child.MBR()
		if !sameBits(e.Rect, childMBR) {
			return 0, fmt.Errorf("%w: node %d entry %v is not its child's MBR %v",
				ErrInvalidMBR, n.ID, e.Rect, childMBR)
		}
		sub, err := t.checkNode(e.Child, wantLevel-1)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}

// checkXLOrder verifies a published order against the node's current
// entries: a permutation of the entry indices, ascending in XL with ties in
// index order, carrying the comparison count a fresh sort.Stable needs, the
// running maximum of XU along that permutation, and the y-sorted strips with
// their running maxima of YU that a fresh build produces.
func checkXLOrder(n *Node, o *XLOrder) error {
	if len(o.Perm) != len(n.Entries) {
		return fmt.Errorf("%w: node %d orders %d of %d entries", ErrStaleOrder, n.ID, len(o.Perm), len(n.Entries))
	}
	seen := make([]bool, len(n.Entries))
	for k, i := range o.Perm {
		if i < 0 || int(i) >= len(seen) || seen[i] {
			return fmt.Errorf("%w: node %d position %d: entry %d out of range or repeated", ErrStaleOrder, n.ID, k, i)
		}
		seen[i] = true
		if k == 0 {
			continue
		}
		prev := o.Perm[k-1]
		a, b := n.Entries[prev].Rect.XL, n.Entries[i].Rect.XL
		if a > b || (a == b && prev > i) {
			return fmt.Errorf("%w: node %d positions %d,%d: entry %d (xl %g) before entry %d (xl %g)",
				ErrStaleOrder, n.ID, k-1, k, prev, a, i, b)
		}
	}
	// Perm is now the one stable order, so a fresh build is the reference
	// for everything derived from it.
	fresh := buildXLOrder(n.Entries)
	if o.SortComparisons != fresh.SortComparisons {
		return fmt.Errorf("%w: node %d stores %d sort comparisons, a fresh sort needs %d",
			ErrStaleOrder, n.ID, o.SortComparisons, fresh.SortComparisons)
	}
	if len(o.PrefixMaxXU) != len(o.Perm) || len(o.YPerm) != len(o.Perm) || len(o.PrefixMaxYU) != len(o.Perm) {
		return fmt.Errorf("%w: node %d keeps %d running XU maxima, %d strip positions and %d running YU maxima for %d entries",
			ErrStaleOrder, n.ID, len(o.PrefixMaxXU), len(o.YPerm), len(o.PrefixMaxYU), len(o.Perm))
	}
	for k, want := range fresh.PrefixMaxXU {
		if o.PrefixMaxXU[k] != want {
			return fmt.Errorf("%w: node %d position %d: running XU maximum %g, entries give %g",
				ErrStaleOrder, n.ID, k, o.PrefixMaxXU[k], want)
		}
	}
	for k, want := range fresh.YPerm {
		if o.YPerm[k] != want {
			return fmt.Errorf("%w: node %d strip %d position %d: entry %d, a fresh build lists entry %d",
				ErrStaleOrder, n.ID, k/StripLen, k, o.YPerm[k], want)
		}
		if o.PrefixMaxYU[k] != fresh.PrefixMaxYU[k] {
			return fmt.Errorf("%w: node %d strip %d position %d: running YU maximum %g, entries give %g",
				ErrStaleOrder, n.ID, k/StripLen, k, o.PrefixMaxYU[k], fresh.PrefixMaxYU[k])
		}
	}
	return nil
}

// checkSiblingOrder verifies a valid sibling order against the node's
// current entries: a permutation of the entry indices, ascending in XL, each
// position's key the entry's XL and its running maximum the entries' XU.
func checkSiblingOrder(n *Node, o *siblingOrder) error {
	if len(o.perm) != len(n.Entries) || len(o.xl) != len(o.perm) || len(o.maxXU) != len(o.perm) {
		return fmt.Errorf("%w: node %d's sibling order keeps %d positions, %d keys and %d running maxima for %d entries",
			ErrStaleOrder, n.ID, len(o.perm), len(o.xl), len(o.maxXU), len(n.Entries))
	}
	seen := make([]bool, len(n.Entries))
	for k, i := range o.perm {
		if i < 0 || int(i) >= len(seen) || seen[i] {
			return fmt.Errorf("%w: node %d's sibling order, position %d: entry %d out of range or repeated", ErrStaleOrder, n.ID, k, i)
		}
		seen[i] = true
		r := n.Entries[i].Rect
		m := r.XU
		if k > 0 {
			m = max(m, o.maxXU[k-1])
		}
		switch {
		case o.xl[k] != r.XL:
			return fmt.Errorf("%w: node %d's sibling order, position %d: key %g, entry %d starts at %g",
				ErrStaleOrder, n.ID, k, o.xl[k], i, r.XL)
		case k > 0 && o.xl[k-1] > o.xl[k]:
			return fmt.Errorf("%w: node %d's sibling order, positions %d,%d: xl %g before %g",
				ErrStaleOrder, n.ID, k-1, k, o.xl[k-1], o.xl[k])
		case o.maxXU[k] != m:
			return fmt.Errorf("%w: node %d's sibling order, position %d: running XU maximum %g, entries give %g",
				ErrStaleOrder, n.ID, k, o.maxXU[k], m)
		}
	}
	return nil
}
