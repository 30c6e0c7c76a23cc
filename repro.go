// Package repro is a reproduction of "Efficient Processing of Spatial Joins
// Using R-trees" (Brinkhoff, Kriegel, Seeger; SIGMOD 1993) as a reusable Go
// library.
//
// It provides
//
//   - an R*-tree spatial index over two-dimensional rectangles with
//     insertion, deletion, window queries and bulk loading,
//   - the paper's spatial-join algorithms SpatialJoin1 through SpatialJoin5
//     (synchronized tree traversal, search-space restriction, plane-sweep
//     intersection test, read schedules with pinning and z-ordering) plus the
//     policies for trees of different heights,
//   - the cost model of the paper (floating-point comparisons, disk accesses
//     through a shared LRU buffer, estimated execution times),
//   - relations combining the filter step with an exact-geometry refinement
//     step (MBR-, ID- and object-spatial-joins),
//   - synthetic data generators standing in for the TIGER/Line and region
//     data sets, and
//   - an experiment suite that regenerates every table and figure of the
//     paper's evaluation.
//
// The top-level package is a thin facade; the implementation lives in the
// internal packages described in DESIGN.md.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Rect is an axis-aligned rectangle (the unit of the MBR-spatial-join).
type Rect = geom.Rect

// NewRect returns the rectangle spanning the two corner points.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// WorldRect returns the unit square all synthetic data sets live in.
func WorldRect() Rect { return geom.WorldRect() }

// R-tree index.
type (
	// RTree is an R*-tree over rectangles.
	RTree = rtree.Tree
	// RTreeOptions configures the page size.
	RTreeOptions = rtree.Options
	// Item is one data rectangle with its object identifier.
	Item = rtree.Item
	// TreeEntry is one slot of a tree node; window queries report data
	// entries of this type.
	TreeEntry = rtree.Entry
)

// Page sizes studied by the paper (its fourth, 8 KByte, is internal-only).
const (
	PageSize1K = storage.PageSize1K
	PageSize2K = storage.PageSize2K
	PageSize4K = storage.PageSize4K
)

// NewRTree creates an empty tree.
func NewRTree(opts RTreeOptions) (*RTree, error) { return rtree.New(opts) }

// BuildRTree builds a tree from items, either by repeated insertion (the
// paper's method) or by STR bulk loading when bulk is true.
func BuildRTree(opts RTreeOptions, items []Item, bulk bool) (*RTree, error) {
	return rtree.Build(opts, items, bulk)
}

// RTreeInsertBuffer stages inserts for one tree and applies each batch in
// Hilbert order, seeding every insert from the previous insert's leaf so
// spatially consecutive rectangles skip the ChooseSubtree descent (the
// update-heavy construction path; see DESIGN.md).
type RTreeInsertBuffer = rtree.InsertBuffer

// NewRTreeInsertBuffer returns an insertion buffer over t that flushes
// automatically every capacity staged rectangles (capacity <= 0 selects the
// default batch size).
func NewRTreeInsertBuffer(t *RTree, capacity int) *RTreeInsertBuffer {
	return rtree.NewInsertBuffer(t, capacity)
}

// BuildRTreeBuffered builds a dynamically inserted tree through a Hilbert
// insertion buffer sized to the whole batch: same construction method as
// repeated insertion, measurably less ChooseSubtree work.
func BuildRTreeBuffered(opts RTreeOptions, items []Item) (*RTree, error) {
	return rtree.BuildBuffered(opts, items)
}

// Spatial join of two R-trees (the filter step, the paper's core subject).
type (
	// JoinMethod selects one of the paper's algorithms.
	JoinMethod = join.Method
	// JoinOptions configures algorithm, buffer and height policy.
	JoinOptions = join.Options
	// JoinResult carries the result pairs and the counted costs.
	JoinResult = join.Result
	// IDPair is one result pair of object identifiers.
	IDPair = join.Pair
	// HeightPolicy selects the strategy for trees of different heights.
	HeightPolicy = join.HeightPolicy
)

// Join algorithms (section 4 of the paper) and the index-free baseline.
const (
	NestedLoopJoin = join.NestedLoop
	SpatialJoin1   = join.SJ1
	SpatialJoin2   = join.SJ2
	SpatialJoin3   = join.SJ3
	SpatialJoin4   = join.SJ4
	SpatialJoin5   = join.SJ5
)

// Height policies for joining trees of different heights (section 4.4).
const (
	WindowPerPair  = join.PolicyWindowPerPair
	BatchedWindows = join.PolicyBatchedWindows
	SweepOrder     = join.PolicySweepOrder
)

// Join predicates: the condition a result pair must satisfy.  The zero
// Predicate is MBR intersection (the paper's join); within-distance and kNN
// are the distance-based extensions of ROADMAP item 4, supported by every
// method, the server wire protocol and the shard router.
type JoinPredicate = join.Predicate

// WithinDistancePredicate keeps pairs whose MBRs come within eps of each
// other (Chebyshev-expanded filter, exact counted Euclidean test).
func WithinDistancePredicate(eps float64) JoinPredicate { return join.WithinDistance(eps) }

// ParseJoinPredicate parses the textual predicate forms used on the command
// lines and the wire: "intersects" (or empty), "within:EPS", "knn:K".
func ParseJoinPredicate(s string) (JoinPredicate, error) { return join.ParsePredicate(s) }

// TreeJoin computes the MBR-spatial-join of two ready R-trees (RTree.Ready).
func TreeJoin(r, s *RTree, opts JoinOptions) (*JoinResult, error) { return join.Join(r, s, opts) }

// SortJoinPairs sorts result pairs by (R, S), the canonical order for
// comparing the pair sets of different methods.
func SortJoinPairs(pairs []IDPair) { join.SortPairs(pairs) }

// SortMergeJoin computes the MBR-spatial-join of two unindexed relations by
// sorting and plane-sweeping them; it is the index-free alternative the paper
// mentions for relations without an R*-tree.
func SortMergeJoin(r, s []Item) *JoinResult { return join.SortMergeJoin(r, s, nil) }

// Relations, refinement step and the join taxonomy of section 2.1.
type (
	// Relation is a set of spatial objects indexed by an R*-tree.
	Relation = core.Relation
	// Object is one spatial object (identifier, exact geometry, MBR).
	Object = core.Object
	// SpatialJoinOptions configures a relation-level join.
	SpatialJoinOptions = core.JoinOptions
	// SpatialJoinResult is the outcome of a relation-level join.
	SpatialJoinResult = core.Result
)

// Join types.
const (
	MBRJoin    = core.MBRJoin
	IDJoin     = core.IDJoin
	ObjectJoin = core.ObjectJoin
)

// BuildRelation creates a relation from objects.
func BuildRelation(name string, objects []Object, opts RTreeOptions, bulk bool) (*Relation, error) {
	return core.BuildRelation(name, objects, opts, bulk)
}

// SpatialJoin joins two relations: the filter step runs one of the paper's
// R*-tree join algorithms, the refinement step checks exact geometries for
// IDJoin and ObjectJoin.
func SpatialJoin(r, s *Relation, opts SpatialJoinOptions) (*SpatialJoinResult, error) {
	return core.SpatialJoin(r, s, opts)
}

// Object constructors from generated items.
var (
	// LineObjects converts items into polyline objects (street/river data).
	LineObjects = core.LineObjectsFromItems
	// RegionObjects converts items into polygon objects (region data).
	RegionObjects = core.RegionObjectsFromItems
)

// Synthetic data sets (substitutes for the paper's TIGER/Line and region
// data; see DESIGN.md).
type (
	// DatasetConfig describes one synthetic relation.
	DatasetConfig = datagen.Config
	// DatasetKind selects streets, rivers or regions.
	DatasetKind = datagen.Kind
)

// Dataset kinds.
const (
	Streets = datagen.Streets
	Rivers  = datagen.Rivers
	Regions = datagen.Regions
)

// GenerateDataset produces a synthetic relation.
func GenerateDataset(cfg DatasetConfig) []Item { return datagen.Generate(cfg) }

// WriteDataset writes items to a CSV file (id,xl,yl,xu,yu).
func WriteDataset(path string, items []Item) error { return dataio.WriteFile(path, items) }

// ReadDataset reads items from a CSV file written by WriteDataset.
func ReadDataset(path string) ([]Item, error) { return dataio.ReadFile(path) }

// Cost model (the paper's HP 720 constants).
type (
	// CostModel converts counted costs into estimated times.
	CostModel = costmodel.Model
	// TreeCatalog is the per-level catalog statistics of an R-tree
	// (RTree.CatalogStats): node and entry counts and the mean entry width
	// per level, computed by one walk of the tree version.
	TreeCatalog = costmodel.Catalog
)

// DefaultCostModel returns the paper's cost constants.
func DefaultCostModel() CostModel { return costmodel.Default() }

// Experiments: every table and figure of the paper.
type (
	// ExperimentConfig controls data-set scale, page sizes and buffer sizes.
	ExperimentConfig = experiments.Config
	// ExperimentSuite runs the paper's evaluation.
	ExperimentSuite = experiments.Suite
)

// NewExperimentSuite creates an experiment suite.
func NewExperimentSuite(cfg ExperimentConfig) *ExperimentSuite { return experiments.NewSuite(cfg) }

// RunAllExperiments regenerates every table and figure of the paper and
// writes the formatted output to w.
func RunAllExperiments(cfg ExperimentConfig, w io.Writer) {
	experiments.NewSuite(cfg).RunAll(w)
}
