package rtree

import "math"

// splitNode splits an overflowing node into two, keeps the first group in n
// and returns a directory entry referencing a newly allocated sibling holding
// the second group.  All split scratch (axis sortings, prefix/suffix MBRs,
// group assembly) lives in the build arena; the only allocations are the
// sibling node and its entry slice, which the tree keeps.
func (t *Tree) splitNode(n *Node) Entry {
	sibling := t.newNode(n.Level)
	sibling.setEntries(t.rstarSplit(n))
	return Entry{Rect: sibling.MBR(), Child: sibling}
}

// keepFirstGroup replaces n's entries with the given group (entries from
// arena scratch, so the copy cannot alias n's backing array) and returns a
// tree-owned copy of the second group with room to overflow once more.
func (t *Tree) keepFirstGroup(n *Node, groupA, groupB []Entry) []Entry {
	n.setEntries(append(n.Entries[:0], groupA...))
	second := make([]Entry, len(groupB), t.maxEnt+1)
	copy(second, groupB)
	return second
}

// rstarSplit implements the R*-tree split of section 3.2 of the paper: choose
// the split axis by the minimum sum of margins over all candidate
// distributions, then choose the distribution on that axis with the minimum
// overlap between the two group MBRs (ties broken by minimum combined area).
//
// The four sortings (by lower and upper corner per axis) are computed once
// into arena buffers and shared between axis choice and index choice; the
// original implementation re-sorted fresh copies for the index choice, which
// yields the identical permutation, so the resulting shapes are unchanged.
func (t *Tree) rstarSplit(n *Node) []Entry {
	a := &t.build
	m := t.minEnt

	var sums [2]float64
	for axis := 0; axis < 2; axis++ {
		for corner := 0; corner < 2; corner++ {
			sums[axis] += t.marginSum(a.sortByAxis(n.Entries, axis, corner), m)
		}
	}
	axis := 1
	if sums[0] <= sums[1] {
		axis = 0
	}

	best := t.chooseSplitIndex(a.sorted[axis], m)
	sorted := a.sorted[axis][best.sorting]
	return t.keepFirstGroup(n, sorted[:best.k], sorted[best.k:])
}

// marginSum returns the sum of the margins of both group MBRs over all legal
// distributions of one sorting.
func (t *Tree) marginSum(sorted []Entry, m int) float64 {
	prefix, suffix := t.build.prefixSuffixMBRs(sorted)
	var sum float64
	for k := m; k <= len(sorted)-m; k++ {
		sum += prefix[k-1].Margin() + suffix[k].Margin()
	}
	return sum
}

// splitChoice identifies one candidate distribution: the sorting it comes
// from (0 = by lower corner, 1 = by upper corner) and the size of the first
// group.
type splitChoice struct {
	sorting int
	k       int
}

// chooseSplitIndex picks the distribution with the least overlap between the
// two group MBRs, ties broken by least combined area, over both sortings of
// the chosen axis.
func (t *Tree) chooseSplitIndex(s [2][]Entry, m int) splitChoice {
	best := splitChoice{sorting: 0, k: m}
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	for sorting := 0; sorting < 2; sorting++ {
		sorted := s[sorting]
		prefix, suffix := t.build.prefixSuffixMBRs(sorted)
		for k := m; k <= len(sorted)-m; k++ {
			a, b := prefix[k-1], suffix[k]
			overlap := a.IntersectionArea(b)
			area := a.Area() + b.Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				best = splitChoice{sorting: sorting, k: k}
				bestOverlap, bestArea = overlap, area
			}
		}
	}
	return best
}
