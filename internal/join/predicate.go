package join

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// PredicateKind enumerates the join predicates the stack evaluates.
type PredicateKind int

const (
	// PredIntersects is the MBR-intersection join of the paper (section 2.1).
	// It is the zero value, so existing callers that never mention a
	// predicate keep running the exact code paths they always did.
	PredIntersects PredicateKind = iota
	// PredWithinDist reports pairs whose MBRs are within Euclidean distance
	// Epsilon of each other.  The filter runs the unchanged intersection
	// machinery over epsilon-expanded R-side rectangles (a Chebyshev
	// over-approximation that is exact on each axis), and leaf pairs get the
	// exact counted Euclidean test before they are emitted.
	PredWithinDist
	// PredKNN reports, for every R item, its K nearest S items by MBR
	// distance.  It replaces the synchronized descent with a best-first
	// traversal over node-pair MBR distance (see knn.go); ties are broken by
	// the smaller S identifier so the result set is deterministic.
	PredKNN
)

// Predicate selects the join condition evaluated by Join.
// The zero value is the intersection predicate, which keeps every existing
// call site — and its cost accounting — bit-identical.
type Predicate struct {
	// Kind selects the predicate.
	Kind PredicateKind
	// Epsilon is the distance threshold of PredWithinDist (>= 0; 0 reduces
	// to intersection-of-touching-MBRs semantics, still evaluated by the
	// distance machinery).
	Epsilon float64
	// K is the number of neighbours per R item for PredKNN (>= 1).
	K int
}

// Intersects returns the intersection predicate (the zero value, spelled
// out for call-site clarity).
func Intersects() Predicate { return Predicate{Kind: PredIntersects} }

// WithinDistance returns the within-distance predicate with threshold eps.
func WithinDistance(eps float64) Predicate {
	return Predicate{Kind: PredWithinDist, Epsilon: eps}
}

// NearestNeighbors returns the k-nearest-neighbours predicate.
func NearestNeighbors(k int) Predicate { return Predicate{Kind: PredKNN, K: k} }

// String implements fmt.Stringer.
func (p Predicate) String() string {
	switch p.Kind {
	case PredIntersects:
		return "intersects"
	case PredWithinDist:
		return fmt.Sprintf("within(%g)", p.Epsilon)
	case PredKNN:
		return fmt.Sprintf("knn(%d)", p.K)
	default:
		return fmt.Sprintf("Predicate(%d)", int(p.Kind))
	}
}

// ErrBadPredicate reports an invalid predicate configuration.
var ErrBadPredicate = errors.New("join: invalid predicate")

// ParsePredicate parses the textual predicate form shared by command-line
// flags and the HTTP wire: "intersects" (or the empty string, the backward
// compatible default), "within:EPS" and "knn:K".  The parsed predicate is
// validated before it is returned.
func ParsePredicate(s string) (Predicate, error) {
	switch {
	case s == "" || s == "intersects":
		return Intersects(), nil
	case strings.HasPrefix(s, "within:"):
		eps, err := strconv.ParseFloat(s[len("within:"):], 64)
		if err != nil {
			return Predicate{}, fmt.Errorf("%w: %q: %v", ErrBadPredicate, s, err)
		}
		p := WithinDistance(eps)
		if err := p.Validate(); err != nil {
			return Predicate{}, err
		}
		return p, nil
	case strings.HasPrefix(s, "knn:"):
		k, err := strconv.Atoi(s[len("knn:"):])
		if err != nil {
			return Predicate{}, fmt.Errorf("%w: %q: %v", ErrBadPredicate, s, err)
		}
		p := NearestNeighbors(k)
		if err := p.Validate(); err != nil {
			return Predicate{}, err
		}
		return p, nil
	default:
		return Predicate{}, fmt.Errorf("%w: unknown predicate %q", ErrBadPredicate, s)
	}
}

// Validate checks the predicate's parameters.
func (p Predicate) Validate() error {
	switch p.Kind {
	case PredIntersects:
		return nil
	case PredWithinDist:
		if math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) || p.Epsilon < 0 {
			return fmt.Errorf("%w: within-distance epsilon %v", ErrBadPredicate, p.Epsilon)
		}
		return nil
	case PredKNN:
		if p.K < 1 {
			return fmt.Errorf("%w: kNN k %d (must be >= 1)", ErrBadPredicate, p.K)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadPredicate, int(p.Kind))
	}
}

// expandEps returns the rectangle expanded by eps on every side, or the
// rectangle itself when eps is zero — the free-function form of the
// executor's expandR, for the restriction scans, which take the R side's
// epsilon and the S side's zero as an argument.
func expandEps(r geom.Rect, eps float64) geom.Rect {
	if eps == 0 {
		return r
	}
	return geom.ExpandRect(r, eps)
}

// expandR applies the predicate's epsilon expansion to an R-side rectangle.
// The within-distance join is, at the filter level, the intersection join
// over (expand(R, eps), S): every test an R rectangle takes part in sees the
// expanded rectangle, and the rest of the machinery — restriction, sorting,
// plane sweep, read schedules — is inherited unchanged.  For
// the intersection predicate eps is 0 and the rectangle is returned as is,
// keeping that path bit-identical.
func (e *executor) expandR(r geom.Rect) geom.Rect {
	if e.eps == 0 {
		return r
	}
	return geom.ExpandRect(r, e.eps)
}

// leafTest evaluates the join condition between two data rectangles: the
// exact counted Euclidean distance test for the within-distance predicate,
// the plain intersection test otherwise.  The expanded-rectangle filter only
// over-approximates at corners (it is a Chebyshev ball, the predicate a
// Euclidean one), so every emitted pair must pass this exact test.
func (e *executor) leafTest(r, s geom.Rect) (bool, int64) {
	if e.eps > 0 {
		return geom.WithinDistSquaredCost(r, s, e.eps2)
	}
	return geom.IntersectsCost(r, s)
}
