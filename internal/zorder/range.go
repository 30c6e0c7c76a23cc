package zorder

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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
// Hilbert curve clusters dense areas into key runs — but they are a
// deterministic assignment every process can compute on its own.
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
