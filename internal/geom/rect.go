// Package geom provides the planar geometric primitives used throughout the
// spatial-join reproduction: axis-aligned rectilinear rectangles, points and
// the intersection predicate whose floating-point comparisons are the paper's
// CPU cost measure.
//
// The paper (section 4) measures CPU time in the number of floating point
// comparisons needed to evaluate the join condition "do two rectilinear
// rectangles intersect?".  For a pair of intersecting rectangles exactly four
// comparisons are required; for non-intersecting pairs the test may
// short-circuit after fewer comparisons.  IntersectsCounted reproduces this
// accounting exactly.  The distance predicates (within-distance, kNN) extend
// the same accounting to interval-gap computations (see distance.go).
//
//repro:measured
package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned rectilinear rectangle given by its lower-left
// corner (XL, YL) and its upper-right corner (XU, YU).  A degenerate rectangle
// (a point or a horizontal/vertical segment) is valid.  The zero value is the
// degenerate rectangle at the origin.
type Rect struct {
	XL, YL, XU, YU float64
}

// NewRect returns the rectangle spanning the two corner points, normalising
// the corner order so that XL <= XU and YL <= YU.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{XL: x1, YL: y1, XU: x2, YU: y2}
}

// RectFromPoints returns the minimum bounding rectangle of the given points.
// It panics if pts is empty.
func RectFromPoints(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints called with no points")
	}
	r := Rect{XL: pts[0].X, YL: pts[0].Y, XU: pts[0].X, YU: pts[0].Y}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// WorldRect returns the rectangle covering the unit square [0,1]².  All
// synthetic data sets generated by internal/datagen live inside it.
func WorldRect() Rect { return Rect{XL: 0, YL: 0, XU: 1, YU: 1} }

// WellFormed reports whether all four corners are finite and ordered (XL <=
// XU and YL <= YU).  Every index structure and join kernel in this module
// assumes it of the rectangles it is given: the sweep's window, the kNN
// leaf kernel's bounds on both axes and the R-tree's covering rectangles are
// exact only on well-formed rectangles.
func (r Rect) WellFormed() bool {
	if math.IsNaN(r.XL) || math.IsNaN(r.YL) || math.IsNaN(r.XU) || math.IsNaN(r.YU) {
		return false
	}
	if math.IsInf(r.XL, 0) || math.IsInf(r.YL, 0) || math.IsInf(r.XU, 0) || math.IsInf(r.YU, 0) {
		return false
	}
	return r.XL <= r.XU && r.YL <= r.YU
}

// Width returns the extent of the rectangle along the x-axis.
func (r Rect) Width() float64 { return r.XU - r.XL }

// Height returns the extent of the rectangle along the y-axis.
func (r Rect) Height() float64 { return r.YU - r.YL }

// Area returns the area of the rectangle.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter (width + height).  The R*-tree split
// algorithm minimises the sum of margins over candidate distributions.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the centre point of the rectangle.
func (r Rect) Center() Point {
	return Point{X: (r.XL + r.XU) / 2, Y: (r.YL + r.YU) / 2}
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		XL: min(r.XL, s.XL),
		YL: min(r.YL, s.YL),
		XU: max(r.XU, s.XU),
		YU: max(r.YU, s.YU),
	}
}

// ExtendPoint returns the minimum bounding rectangle of r and the point p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		XL: min(r.XL, p.X),
		YL: min(r.YL, p.Y),
		XU: max(r.XU, p.X),
		YU: max(r.YU, p.Y),
	}
}

// Intersects reports whether r and s share at least one point (their closed
// intersection is non-empty).
func (r Rect) Intersects(s Rect) bool {
	return r.XL <= s.XU && s.XL <= r.XU && r.YL <= s.YU && s.YL <= r.YU
}

// Intersection returns the common rectangle of r and s and whether it is
// non-empty.  When the rectangles do not intersect the returned rectangle is
// the zero value.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		XL: max(r.XL, s.XL),
		YL: max(r.YL, s.YL),
		XU: min(r.XU, s.XU),
		YU: min(r.YU, s.YU),
	}, true
}

// IntersectionArea returns the area of the common rectangle of r and s, or 0
// if they do not intersect.  It is used by the R*-tree overlap computations.
func (r Rect) IntersectionArea(s Rect) float64 {
	w := min(r.XU, s.XU) - max(r.XL, s.XL)
	if w <= 0 {
		return 0
	}
	h := min(r.YU, s.YU) - max(r.YL, s.YL)
	if h <= 0 {
		return 0
	}
	return w * h
}

// Contains reports whether r completely covers s.
func (r Rect) Contains(s Rect) bool {
	return r.XL <= s.XL && s.XU <= r.XU && r.YL <= s.YL && s.YU <= r.YU
}

// ContainsPoint reports whether the point p lies inside or on the border of r.
func (r Rect) ContainsPoint(p Point) bool {
	return r.XL <= p.X && p.X <= r.XU && r.YL <= p.Y && p.Y <= r.YU
}

// Enlargement returns the increase in area needed to extend r so that it
// covers s.  It is used by the insertion algorithms of the R-tree family.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// CenterDistance returns the Euclidean distance between the centres of r and
// s.  Forced re-insertion in the R*-tree removes the entries whose rectangle
// centres are farthest from the node's centre.
func (r Rect) CenterDistance(s Rect) float64 {
	return r.Center().Distance(s.Center())
}

// Equal reports whether r and s have identical coordinates.
func (r Rect) Equal(s Rect) bool {
	return r.XL == s.XL && r.YL == s.YL && r.XU == s.XU && r.YU == s.YU
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.XL, r.XU, r.YL, r.YU)
}

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between p and q.
func (p Point) Distance(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Rect returns the degenerate rectangle covering only p.
func (p Point) Rect() Rect { return Rect{XL: p.X, YL: p.Y, XU: p.X, YU: p.Y} }
