// Package zorder implements the space-filling curves used by the spatial-join
// read-schedule heuristics: the z-order (Peano) curve of section 4.3 (used by
// SpatialJoin5 to sort intersection-rectangle centres) and, as an extension,
// the Hilbert curve used by Hilbert-packed bulk loading.
//
// Both curves map a two-dimensional point in the unit square to a one-
// dimensional key; sorting by the key clusters points that are close in space.
package zorder

import "repro/internal/geom"

// Resolution is the number of bits per dimension used when quantising a
// coordinate in the unit square to a grid cell.  With 16 bits the grid has
// 65,536 × 65,536 cells, far finer than any node's rectangle set, so ordering
// ties are negligible.
const Resolution = 16

// maxCell is the largest cell index per dimension.
const maxCell = (1 << Resolution) - 1

// cellOf quantises a coordinate in [lo, hi] to a grid cell index.
// Values outside the range are clamped.
func cellOf(v, lo, hi float64) uint32 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint32(f * maxCell)
}

// interleave spreads the lower 16 bits of v so that there is one zero bit
// between every original bit ("part1by1" bit trick).
func interleave(v uint32) uint64 {
	x := uint64(v) & 0xFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Key returns the z-order (Morton) key of the grid cell containing p, where
// the grid covers the rectangle world.  Points outside world are clamped to
// its border.
func Key(p geom.Point, world geom.Rect) uint64 {
	cx := cellOf(p.X, world.XL, world.XU)
	cy := cellOf(p.Y, world.YL, world.YU)
	return KeyOfCell(cx, cy)
}

// KeyOfCell returns the z-order key of the grid cell with the given column
// and row indices (each at most 2^Resolution-1).
func KeyOfCell(cx, cy uint32) uint64 {
	return interleave(cx) | interleave(cy)<<1
}

// RectKey returns the z-order key of the centre of r relative to world.  The
// local z-order read schedule (SpatialJoin5) sorts intersection rectangles by
// the key of their centres.
func RectKey(r geom.Rect, world geom.Rect) uint64 {
	return Key(r.Center(), world)
}

// HilbertKey returns the Hilbert-curve index of the grid cell containing p,
// where the grid covers world.  The Hilbert curve preserves locality better
// than the z-order curve (no long jumps between quadrant boundaries) and is
// used by the Hilbert-packed bulk loader.
func HilbertKey(p geom.Point, world geom.Rect) uint64 {
	cx := cellOf(p.X, world.XL, world.XU)
	cy := cellOf(p.Y, world.YL, world.YU)
	return HilbertKeyOfCell(cx, cy)
}

// HilbertKeyOfCell converts grid-cell coordinates to the distance along the
// Hilbert curve of order Resolution.
func HilbertKeyOfCell(cx, cy uint32) uint64 {
	x, y := cx, cy
	var d uint64
	for s := uint32(1 << (Resolution - 1)); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
