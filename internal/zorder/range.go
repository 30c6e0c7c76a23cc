package zorder

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// KeySpace is the number of distinct Hilbert keys at the curve's resolution:
// every key lies in [0, KeySpace).  The sharding layer assigns each shard a
// half-open sub-range of this space.
const KeySpace uint64 = 1 << (2 * Resolution)

// KeyRange is a half-open range [Lo, Hi) of Hilbert keys.  The shard
// processes each own one range; together the ranges of a deployment tile
// [0, KeySpace) exactly, so every rectangle (routed by the Hilbert key of
// its centre) has exactly one home.
type KeyRange struct {
	Lo, Hi uint64
}

// Contains reports whether key falls inside the range.
func (r KeyRange) Contains(key uint64) bool { return key >= r.Lo && key < r.Hi }

// Empty reports whether the range holds no keys.
func (r KeyRange) Empty() bool { return r.Hi <= r.Lo }

// Overlaps reports whether the two half-open ranges share any key.
func (r KeyRange) Overlaps(o KeyRange) bool {
	return r.Lo < o.Hi && o.Lo < r.Hi && !r.Empty() && !o.Empty()
}

// String formats the range as "lo:hi", the form ParseKeyRange accepts and
// the daemon's -shard flag takes.
func (r KeyRange) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// ParseKeyRange parses a "lo:hi" half-open Hilbert key range as accepted by
// the daemon's -shard flag.  lo must be strictly below hi and hi at most
// KeySpace.
func ParseKeyRange(s string) (KeyRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return KeyRange{}, fmt.Errorf("zorder: key range %q is not of the form lo:hi", s)
	}
	l, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return KeyRange{}, fmt.Errorf("zorder: key range %q: bad lower bound: %w", s, err)
	}
	h, err := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
	if err != nil {
		return KeyRange{}, fmt.Errorf("zorder: key range %q: bad upper bound: %w", s, err)
	}
	if l >= h {
		return KeyRange{}, fmt.Errorf("zorder: key range %q is empty", s)
	}
	if h > KeySpace {
		return KeyRange{}, fmt.Errorf("zorder: key range %q exceeds the key space %d", s, KeySpace)
	}
	return KeyRange{Lo: l, Hi: h}, nil
}

// UniformKeyRanges tiles [0, KeySpace) into n contiguous near-equal ranges,
// the default shard assignment when nothing is known about the data
// distribution.  Uniform key ranges are not uniform data shares — the
// Hilbert curve clusters dense areas into key runs — but they are the
// deterministic starting point the coverage statistics then inform.
func UniformKeyRanges(n int) []KeyRange {
	if n < 1 {
		n = 1
	}
	ranges := make([]KeyRange, n)
	base := KeySpace / uint64(n)
	rem := KeySpace % uint64(n)
	lo := uint64(0)
	for i := range ranges {
		hi := lo + base
		if uint64(i) < rem {
			hi++
		}
		ranges[i] = KeyRange{Lo: lo, Hi: hi}
		lo = hi
	}
	return ranges
}

// TilesKeySpace reports whether the ranges cover [0, KeySpace) exactly once:
// sorted by Lo they must be non-empty, gap-free and overlap-free from 0 to
// KeySpace.  The router refuses a shard set that fails this, since a gap
// loses updates and an overlap duplicates join pairs.
func TilesKeySpace(ranges []KeyRange) bool {
	if len(ranges) == 0 {
		return false
	}
	sorted := append([]KeyRange(nil), ranges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	next := uint64(0)
	for _, r := range sorted {
		if r.Empty() || r.Lo != next {
			return false
		}
		next = r.Hi
	}
	return next == KeySpace
}

// HilbertCover returns a sorted, coalesced set of key ranges that together
// contain the Hilbert key of every grid cell a point of rect can quantise
// to.  The cover is a superset: descending the Hilbert quadtree is cut off
// at maxDepth levels (and at single cells), and any block still straddling
// the rectangle's border at the cut-off is included whole.  A larger
// maxDepth gives a tighter cover in exchange for more ranges; maxDepth <= 0
// covers the whole key space with one range.
//
// The contiguity that makes this work: an axis-aligned 2^k x 2^k cell block
// aligned to its own size is one full sub-quadrant of the Hilbert recursion,
// so its keys form one contiguous run of length 4^k starting at the block
// corner the curve enters through (the minimum of the four corner keys).
func HilbertCover(rect geom.Rect, world geom.Rect, maxDepth int) []KeyRange {
	cxl := cellOf(rect.XL, world.XL, world.XU)
	cxu := cellOf(rect.XU, world.XL, world.XU)
	cyl := cellOf(rect.YL, world.YL, world.YU)
	cyu := cellOf(rect.YU, world.YL, world.YU)

	var cover []KeyRange
	var descend func(qx, qy uint32, size uint32, depth int)
	descend = func(qx, qy, size uint32, depth int) {
		// Disjoint from the quantised query block: nothing to cover.
		if qx > cxu || qx+size-1 < cxl || qy > cyu || qy+size-1 < cyl {
			return
		}
		inside := qx >= cxl && qx+size-1 <= cxu && qy >= cyl && qy+size-1 <= cyu
		if inside || size == 1 || depth >= maxDepth {
			cover = append(cover, blockRange(qx, qy, size))
			return
		}
		half := size / 2
		descend(qx, qy, half, depth+1)
		descend(qx+half, qy, half, depth+1)
		descend(qx, qy+half, half, depth+1)
		descend(qx+half, qy+half, half, depth+1)
	}
	descend(0, 0, 1<<Resolution, 0)

	sort.Slice(cover, func(i, j int) bool { return cover[i].Lo < cover[j].Lo })
	out := cover[:0]
	for _, r := range cover {
		if n := len(out); n > 0 && out[n-1].Hi >= r.Lo {
			if r.Hi > out[n-1].Hi {
				out[n-1].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// blockRange returns the contiguous key range of the aligned size x size
// cell block anchored at (qx, qy).
func blockRange(qx, qy, size uint32) KeyRange {
	lo := HilbertKeyOfCell(qx, qy)
	for _, k := range [3]uint64{
		HilbertKeyOfCell(qx+size-1, qy),
		HilbertKeyOfCell(qx, qy+size-1),
		HilbertKeyOfCell(qx+size-1, qy+size-1),
	} {
		if k < lo {
			lo = k
		}
	}
	return KeyRange{Lo: lo, Hi: lo + uint64(size)*uint64(size)}
}
