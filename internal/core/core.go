// Package core ties the substrates together into the system the paper
// describes: spatial relations indexed by R*-trees, the filter step
// (MBR-spatial-join over the indexes, internal/join) and the refinement step
// (exact geometry tests, internal/refine).  It exposes the three join types
// of section 2.1 — MBR-, ID- and object-spatial-join — behind one call.
package core

import (
	"errors"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/refine"
	"repro/internal/rtree"
)

// Object is one spatial object of a relation: a unique identifier, its exact
// geometry (optional) and the minimum bounding rectangle used by the filter
// step.
type Object struct {
	ID       int32
	Geometry refine.Geometry
	MBR      geom.Rect
}

// Relation is a named set of spatial objects indexed by an R*-tree over their
// MBRs, the standing assumption of the paper ("a spatial index exists on a
// spatial relation").
type Relation struct {
	name    string
	objects map[int32]Object
	tree    *rtree.Tree
}

// NewRelation creates an empty relation whose index uses the given tree
// options.
func NewRelation(name string, opts rtree.Options) (*Relation, error) {
	t, err := rtree.New(opts)
	if err != nil {
		return nil, fmt.Errorf("core: creating index for %q: %w", name, err)
	}
	return &Relation{name: name, objects: make(map[int32]Object), tree: t}, nil
}

// BuildRelation creates a relation holding the given objects.  With bulk set
// the index is packed with STR bulk loading instead of repeated insertion.
func BuildRelation(name string, objects []Object, opts rtree.Options, bulk bool) (*Relation, error) {
	if bulk {
		items := make([]rtree.Item, len(objects))
		objMap := make(map[int32]Object, len(objects))
		for i, o := range objects {
			if _, dup := objMap[o.ID]; dup {
				return nil, fmt.Errorf("core: duplicate object id %d in %q", o.ID, name)
			}
			items[i] = rtree.Item{Rect: o.MBR, Data: o.ID}
			objMap[o.ID] = o
		}
		t, err := rtree.BulkLoadSTR(opts, items)
		if err != nil {
			return nil, fmt.Errorf("core: bulk loading %q: %w", name, err)
		}
		return &Relation{name: name, objects: objMap, tree: t}, nil
	}
	rel, err := NewRelation(name, opts)
	if err != nil {
		return nil, err
	}
	for _, o := range objects {
		if err := rel.Add(o); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// Add inserts one object into the relation and its index.
func (r *Relation) Add(o Object) error {
	if _, dup := r.objects[o.ID]; dup {
		return fmt.Errorf("core: duplicate object id %d in %q", o.ID, r.name)
	}
	if !o.MBR.WellFormed() {
		return fmt.Errorf("core: object %d has an invalid MBR %v", o.ID, o.MBR)
	}
	r.objects[o.ID] = o
	r.tree.Insert(o.MBR, o.ID)
	return nil
}

// Remove deletes the object with the given identifier from the relation and
// its index.  It reports whether the object existed.
func (r *Relation) Remove(id int32) bool {
	o, ok := r.objects[id]
	if !ok {
		return false
	}
	delete(r.objects, id)
	return r.tree.Delete(o.MBR, id)
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Len returns the number of objects.
func (r *Relation) Len() int { return len(r.objects) }

// Tree returns the R*-tree index.
func (r *Relation) Tree() *rtree.Tree { return r.tree }

// Object returns the object with the given identifier.
func (r *Relation) Object(id int32) (Object, bool) {
	o, ok := r.objects[id]
	return o, ok
}

// WindowQuery returns the objects whose MBR intersects the window (the filter
// step).  With exact set, objects carrying a geometry are additionally tested
// against the window rectangle's exact extent (the refinement step); objects
// without geometry are kept.
func (r *Relation) WindowQuery(window geom.Rect, exact bool) []Object {
	var out []Object
	windowPoly := refine.RectPolygon(window)
	r.tree.Search(window, func(e rtree.Entry) bool {
		o, ok := r.objects[e.Data]
		if !ok {
			return true
		}
		if exact && o.Geometry != nil && !o.Geometry.IntersectsGeometry(windowPoly) {
			return true
		}
		out = append(out, o)
		return true
	})
	return out
}

// JoinType selects which of the three spatial joins of section 2.1 to
// compute.
type JoinType int

const (
	// MBRJoin reports pairs of identifiers whose MBRs intersect (the filter
	// step only; what the paper's evaluation measures).
	MBRJoin JoinType = iota
	// IDJoin reports pairs of identifiers whose exact geometries intersect
	// (filter step plus refinement step).
	IDJoin
	// ObjectJoin additionally computes the intersection geometry for
	// polyline/polyline pairs.
	ObjectJoin
)

// String implements fmt.Stringer.
func (t JoinType) String() string {
	switch t {
	case MBRJoin:
		return "MBR-spatial-join"
	case IDJoin:
		return "ID-spatial-join"
	case ObjectJoin:
		return "object-spatial-join"
	default:
		return fmt.Sprintf("JoinType(%d)", int(t))
	}
}

// JoinOptions configures a spatial join.
type JoinOptions struct {
	// Type selects MBR-, ID- or object-spatial-join.  Default MBRJoin.
	Type JoinType
	// Filter configures the R*-tree join used as the filter step.
	Filter join.Options
	// CostModel converts the counted costs into estimated times; the zero
	// value uses the paper's HP 720 constants.
	CostModel *costmodel.Model
}

// ResultPair is one pair of the join result.  For ObjectJoin of two polylines
// Points holds the intersection points.
type ResultPair struct {
	R, S   int32
	Points []geom.Point
}

// Result is the outcome of a spatial join.
type Result struct {
	// Pairs are the result pairs after the refinement step (if any).
	Pairs []ResultPair
	// FilterPairs is the number of candidates produced by the filter step.
	FilterPairs int
	// Metrics are the counted costs of the filter step.
	Metrics metrics.Snapshot
	// Estimate is the execution-time estimate of the filter step under the
	// paper's cost model.
	Estimate costmodel.Estimate
	// RefineOps is the counted refinement work (ID- and object-joins) in the
	// cost model's comparison unit; zero for MBRJoin.
	RefineOps int64
	// RefineSeconds prices RefineOps with the model's comparison constant:
	// the refinement step's CPU, reported separately from the filter step's
	// I/O and CPU the way Section 5 of the paper separates them.
	RefineSeconds float64
	// Type records the join type.
	Type JoinType
	// Method records the filter algorithm used.
	Method join.Method
	// Predicate records the join predicate the filter ran.
	Predicate join.Predicate
}

// ErrNilRelation is returned when a nil relation is passed to SpatialJoin.
var ErrNilRelation = errors.New("core: nil relation")

// SpatialJoin joins two relations.  The filter step runs over the R*-tree
// indexes with the configured algorithm and predicate; for IDJoin and
// ObjectJoin the candidates are refined with the exact geometries (objects
// without geometry are treated as rectangles).  The refinement test follows
// the predicate: intersection refines with the exact intersection test,
// within-distance with the exact distance test.  kNN candidates pass the
// refinement unchanged — the K nearest by MBR distance is the filter's
// answer, and exact-geometry re-ranking would need a candidate set larger
// than K, which the filter does not produce.
func SpatialJoin(r, s *Relation, opts JoinOptions) (*Result, error) {
	if r == nil || s == nil {
		return nil, ErrNilRelation
	}
	if opts.Type != MBRJoin && opts.Type != IDJoin && opts.Type != ObjectJoin {
		return nil, fmt.Errorf("core: unknown join type %v", opts.Type)
	}
	filterRes, err := join.Join(r.tree, s.tree, withMaterialised(opts.Filter))
	if err != nil {
		return nil, fmt.Errorf("core: filter step: %w", err)
	}
	model := costmodel.Default()
	if opts.CostModel != nil {
		model = *opts.CostModel
	}
	res := &Result{
		FilterPairs: filterRes.Count,
		Metrics:     filterRes.Metrics,
		Estimate:    model.Estimate(filterRes.Metrics.DiskAccesses(), r.tree.PageSize(), filterRes.Metrics.TotalComparisons()),
		Type:        opts.Type,
		Method:      opts.Filter.Method,
		Predicate:   opts.Filter.Predicate,
	}
	for _, p := range filterRes.Pairs {
		ro, okR := r.objects[p.R]
		so, okS := s.objects[p.S]
		if !okR || !okS {
			continue
		}
		switch opts.Type {
		case MBRJoin:
			res.Pairs = append(res.Pairs, ResultPair{R: p.R, S: p.S})
		case IDJoin:
			ok, ops := refinePair(ro, so, opts.Filter.Predicate)
			res.RefineOps += ops
			if ok {
				res.Pairs = append(res.Pairs, ResultPair{R: p.R, S: p.S})
			}
		case ObjectJoin:
			ok, ops := refinePair(ro, so, opts.Filter.Predicate)
			res.RefineOps += ops
			if !ok {
				continue
			}
			pair := ResultPair{R: p.R, S: p.S}
			if rl, ok := ro.Geometry.(refine.Polyline); ok {
				if sl, ok := so.Geometry.(refine.Polyline); ok {
					pair.Points = refine.IntersectionPoints(rl, sl)
				}
			}
			res.Pairs = append(res.Pairs, pair)
		default:
			return nil, fmt.Errorf("core: unknown join type %v", opts.Type)
		}
	}
	res.RefineSeconds = float64(res.RefineOps) * model.ComparisonSeconds
	return res, nil
}

// withMaterialised ensures the filter step materialises its pairs, which the
// refinement step needs, regardless of the caller's DiscardPairs setting.
func withMaterialised(o join.Options) join.Options {
	o.DiscardPairs = false
	return o
}

// refinePair applies the predicate's refinement test to one candidate pair
// and returns the verdict plus the counted refinement operations.  Objects
// without exact geometry fall back to their MBR's rectangle polygon, so a
// pair of two geometry-less objects is always accepted under intersection
// (the filter already proved the MBR predicate) and tested on MBR extent
// under within-distance.  kNN candidates pass unchanged at zero cost.
func refinePair(a, b Object, pred join.Predicate) (bool, int64) {
	if pred.Kind == join.PredKNN {
		return true, 0
	}
	ga, gb := a.Geometry, b.Geometry
	if ga == nil && gb == nil && pred.Kind == join.PredIntersects {
		return true, 0
	}
	if ga == nil {
		ga = refine.RectPolygon(a.MBR)
	}
	if gb == nil {
		gb = refine.RectPolygon(b.MBR)
	}
	if pred.Kind == join.PredWithinDist {
		return refine.DistanceWithin(ga, gb, pred.Epsilon)
	}
	return refine.IntersectsCost(ga, gb)
}

// LineObjectsFromItems converts MBR items (as produced by internal/datagen
// for street and river maps) into objects whose exact geometry is the line
// segment spanning the MBR diagonal — exactly the segment the generator
// derived the MBR from.
func LineObjectsFromItems(items []rtree.Item) []Object {
	out := make([]Object, len(items))
	for i, it := range items {
		line := refine.Polyline{Points: []geom.Point{
			{X: it.Rect.XL, Y: it.Rect.YL},
			{X: it.Rect.XU, Y: it.Rect.YU},
		}}
		out[i] = Object{ID: it.Data, Geometry: line, MBR: it.Rect}
	}
	return out
}

// RegionObjectsFromItems converts MBR items of region maps into objects whose
// exact geometry is the rectangle polygon of the MBR.
func RegionObjectsFromItems(items []rtree.Item) []Object {
	out := make([]Object, len(items))
	for i, it := range items {
		out[i] = Object{ID: it.Data, Geometry: refine.RectPolygon(it.Rect), MBR: it.Rect}
	}
	return out
}

// MBRObjectsFromItems converts MBR items into geometry-less objects for pure
// filter-step workloads.
func MBRObjectsFromItems(items []rtree.Item) []Object {
	out := make([]Object, len(items))
	for i, it := range items {
		out[i] = Object{ID: it.Data, MBR: it.Rect}
	}
	return out
}
