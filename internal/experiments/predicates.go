package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Predicate suite (extension): the three join predicates — intersection,
// within-distance and kNN — run through the measured filter-and-refine
// pipeline on the paper's main pair (streets R, rivers S) with exact line
// geometries.  For each predicate the report separates, the way Section 5 of
// the paper does:
//
//   - the filter step's I/O (counted disk accesses) and CPU (counted MBR
//     comparisons), priced with the paper's cost model, and
//   - the refinement step's CPU (counted exact-geometry operations, priced
//     with the same comparison constant), together with the candidate-pair
//     count the filter produced and the exact-result count that survives
//     refinement.
//
// Every filter result is checked against an independent brute-force oracle,
// and SJ1..SJ5 must all agree pairwise.  The suite
// also closes ROADMAP 5(b): the same predicate workload is run on trees
// built by plain insertion and by Hilbert-buffered insertion, pinning that
// the buffered build's speedup costs nothing downstream.
// ---------------------------------------------------------------------------

// PredicateBenchConfig parameterises the suite.  The zero value runs the
// default workload at Scale 1.0.
type PredicateBenchConfig struct {
	// Scale multiplies the paper cardinalities (default 1.0).
	Scale float64
	// PageSize is the tree page size (default 4K).
	PageSize int
	// Epsilon is the within-distance radius (default 0.0025, about 2.5x a
	// street MBR's side in the unit-square world).
	Epsilon float64
	// K is the kNN neighbour count (default 4).
	K int
}

func (c PredicateBenchConfig) withDefaults() PredicateBenchConfig {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.PageSize <= 0 {
		c.PageSize = storage.PageSize4K
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.0025
	}
	if c.K <= 0 {
		c.K = 4
	}
	return c
}

// PredicateRow is the filter-and-refine measurement of one predicate.
type PredicateRow struct {
	// Predicate is the textual form ("intersects", "within:EPS", "knn:K").
	Predicate string
	// Candidates is the candidate-pair count out of the filter step;
	// Exact is the result count after exact-geometry refinement.
	Candidates, Exact int
	// FilterIO is the filter step's counted disk accesses, FilterComps its
	// counted MBR comparisons.
	FilterIO, FilterComps int64
	// FilterIOSeconds / FilterCPUSeconds price the filter counters with the
	// paper's cost model.
	FilterIOSeconds, FilterCPUSeconds float64
	// RefineOps is the refinement step's counted exact-geometry operations
	// and RefineSeconds their price under the same comparison constant.
	RefineOps     int64
	RefineSeconds float64
	// ParityOK: the filter pairs match the brute-force oracle, and SJ1..SJ5
	// agree.
	ParityOK bool
}

// BuildCompareRow is one predicate's downstream cost on plain-built vs
// buffered-built trees (ROADMAP 5(b)).
type BuildCompareRow struct {
	Predicate string
	// PlainIO/BufferedIO are counted disk accesses of the filter step on the
	// two tree pairs; PlainComps/BufferedComps the counted comparisons.
	PlainIO, BufferedIO       int64
	PlainComps, BufferedComps int64
	// PlainSeconds/BufferedSeconds are the cost-model totals.
	PlainSeconds, BufferedSeconds float64
	// Pairs must be identical on both tree pairs.
	Pairs int
}

// PredicateReport is the outcome of the whole suite.
type PredicateReport struct {
	Config PredicateBenchConfig
	// NR and NS are the generated cardinalities.
	NR, NS int
	Rows   []PredicateRow

	// BuildPlainWall / BuildBufferedWall are the build times of the R tree
	// by plain insertion vs Hilbert-buffered insertion; BuildSpeedup their
	// ratio.
	BuildPlainWall, BuildBufferedWall time.Duration
	BuildSpeedup                      float64
	BuildRows                         []BuildCompareRow
	// MaxDownstreamPenalty is the worst buffered/plain cost-model ratio over
	// the predicate suite — the "costs nothing downstream" number.
	MaxDownstreamPenalty float64

	Failures []string
}

// Ok reports whether every parity check passed.
func (r *PredicateReport) Ok() bool { return len(r.Failures) == 0 }

func (r *PredicateReport) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// predicateOracle computes the brute-force pair set of one predicate over
// the raw MBR items, independent of the trees and the join code.
func predicateOracle(rItems, sItems []rtree.Item, pred join.Predicate) []join.Pair {
	var out []join.Pair
	switch pred.Kind {
	case join.PredWithinDist:
		e2 := pred.Epsilon * pred.Epsilon
		for _, r := range rItems {
			for _, s := range sItems {
				if oracleRectDist2(r.Rect, s.Rect) <= e2 {
					out = append(out, join.Pair{R: r.Data, S: s.Data})
				}
			}
		}
	case join.PredKNN:
		for _, r := range rItems {
			type cand struct {
				d2  float64
				sID int32
			}
			best := make([]cand, 0, pred.K)
			worse := func(a, b cand) bool {
				if a.d2 != b.d2 {
					return a.d2 > b.d2
				}
				return a.sID > b.sID
			}
			for _, s := range sItems {
				c := cand{d2: oracleRectDist2(r.Rect, s.Rect), sID: s.Data}
				if len(best) < pred.K {
					best = append(best, c)
					sort.Slice(best, func(i, j int) bool { return worse(best[j], best[i]) })
					continue
				}
				if worse(best[len(best)-1], c) {
					best[len(best)-1] = c
					sort.Slice(best, func(i, j int) bool { return worse(best[j], best[i]) })
				}
			}
			for _, c := range best {
				out = append(out, join.Pair{R: r.Data, S: c.sID})
			}
		}
	default:
		for _, r := range rItems {
			for _, s := range sItems {
				if r.Rect.Intersects(s.Rect) {
					out = append(out, join.Pair{R: r.Data, S: s.Data})
				}
			}
		}
	}
	join.SortPairs(out)
	return out
}

func oracleRectDist2(a, b geom.Rect) float64 {
	dx := maxf(0, maxf(a.XL-b.XU, b.XL-a.XU))
	dy := maxf(0, maxf(a.YL-b.YU, b.YL-a.YU))
	return dx*dx + dy*dy
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func samePairSlices(a, b []join.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunPredicateBench runs the suite.
func RunPredicateBench(cfg PredicateBenchConfig) *PredicateReport {
	cfg = cfg.withDefaults()
	rep := &PredicateReport{Config: cfg}
	model := costmodel.Default()

	scaled := func(n int) int {
		v := int(float64(n) * cfg.Scale)
		if v < 100 {
			v = 100
		}
		return v
	}
	rItems := datagen.Generate(datagen.Config{Kind: datagen.Streets, Count: scaled(datagen.PaperStreetsCount), Seed: 101})
	sItems := datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: scaled(datagen.PaperRiversRailwaysCount), Seed: 202})
	rep.NR, rep.NS = len(rItems), len(sItems)

	opts := rtree.Options{PageSize: cfg.PageSize}
	relR, err := core.BuildRelation("streets", core.LineObjectsFromItems(rItems), opts, false)
	if err != nil {
		rep.failf("building R relation: %v", err)
		return rep
	}
	relS, err := core.BuildRelation("rivers", core.LineObjectsFromItems(sItems), opts, false)
	if err != nil {
		rep.failf("building S relation: %v", err)
		return rep
	}

	preds := []join.Predicate{
		join.Intersects(),
		join.WithinDistance(cfg.Epsilon),
		join.NearestNeighbors(cfg.K),
	}
	for _, pred := range preds {
		oracle := predicateOracle(rItems, sItems, pred)

		// The measured run: SJ4 filter plus exact-geometry refinement.
		res, err := core.SpatialJoin(relR, relS, core.JoinOptions{
			Type:   core.IDJoin,
			Filter: join.Options{Method: join.SJ4, Predicate: pred, UsePathBuffer: true},
		})
		if err != nil {
			rep.failf("%s: SpatialJoin: %v", pred, err)
			continue
		}
		row := PredicateRow{
			Predicate:        pred.String(),
			Candidates:       res.FilterPairs,
			Exact:            len(res.Pairs),
			FilterIO:         res.Metrics.DiskAccesses(),
			FilterComps:      res.Metrics.TotalComparisons(),
			FilterIOSeconds:  res.Estimate.IOSeconds,
			FilterCPUSeconds: res.Estimate.CPUSeconds,
			RefineOps:        res.RefineOps,
			RefineSeconds:    res.RefineSeconds,
			ParityOK:         true,
		}

		// Filter parity: every method must match the brute-force oracle bit
		// for bit.
		for _, m := range []join.Method{join.SJ1, join.SJ2, join.SJ3, join.SJ4, join.SJ5} {
			fres, err := join.Join(relR.Tree(), relS.Tree(), join.Options{Method: m, Predicate: pred, UsePathBuffer: true})
			if err != nil {
				rep.failf("%s: %v filter: %v", pred, m, err)
				row.ParityOK = false
				continue
			}
			join.SortPairs(fres.Pairs)
			if !samePairSlices(fres.Pairs, oracle) {
				rep.failf("%s: %v filter pairs diverge from oracle (%d vs %d)", pred, m, len(fres.Pairs), len(oracle))
				row.ParityOK = false
			}
		}
		rep.Rows = append(rep.Rows, row)
	}

	runBuildCompare(rep, rItems, sItems, preds, model)
	return rep
}

// runBuildCompare closes ROADMAP 5(b): same predicate workload on plain-built
// vs Hilbert-buffered-built trees.
func runBuildCompare(rep *PredicateReport, rItems, sItems []rtree.Item, preds []join.Predicate, model costmodel.Model) {
	cfg := rep.Config
	opts := rtree.Options{PageSize: cfg.PageSize}

	start := time.Now()
	plainR, err := rtree.Build(opts, rItems, false)
	rep.BuildPlainWall = time.Since(start)
	if err != nil {
		rep.failf("plain build: %v", err)
		return
	}
	start = time.Now()
	bufR, err := rtree.BuildBuffered(opts, rItems)
	rep.BuildBufferedWall = time.Since(start)
	if err != nil {
		rep.failf("buffered build: %v", err)
		return
	}
	if rep.BuildBufferedWall > 0 {
		rep.BuildSpeedup = float64(rep.BuildPlainWall) / float64(rep.BuildBufferedWall)
	}
	plainS, err := rtree.Build(opts, sItems, false)
	if err != nil {
		rep.failf("plain build S: %v", err)
		return
	}
	bufS, err := rtree.BuildBuffered(opts, sItems)
	if err != nil {
		rep.failf("buffered build S: %v", err)
		return
	}

	for _, pred := range preds {
		run := func(r, s *rtree.Tree) (*join.Result, error) {
			return join.Join(r, s, join.Options{Method: join.SJ4, Predicate: pred, UsePathBuffer: true})
		}
		pr, err := run(plainR, plainS)
		if err != nil {
			rep.failf("%s on plain trees: %v", pred, err)
			continue
		}
		br, err := run(bufR, bufS)
		if err != nil {
			rep.failf("%s on buffered trees: %v", pred, err)
			continue
		}
		join.SortPairs(pr.Pairs)
		join.SortPairs(br.Pairs)
		if !samePairSlices(pr.Pairs, br.Pairs) {
			rep.failf("%s: plain and buffered trees disagree on the result", pred)
		}
		pe := model.Estimate(pr.Metrics.DiskAccesses(), cfg.PageSize, pr.Metrics.TotalComparisons())
		be := model.Estimate(br.Metrics.DiskAccesses(), cfg.PageSize, br.Metrics.TotalComparisons())
		rep.BuildRows = append(rep.BuildRows, BuildCompareRow{
			Predicate:       pred.String(),
			PlainIO:         pr.Metrics.DiskAccesses(),
			BufferedIO:      br.Metrics.DiskAccesses(),
			PlainComps:      pr.Metrics.TotalComparisons(),
			BufferedComps:   br.Metrics.TotalComparisons(),
			PlainSeconds:    pe.TotalSeconds(),
			BufferedSeconds: be.TotalSeconds(),
			Pairs:           len(pr.Pairs),
		})
		if pe.TotalSeconds() > 0 {
			if ratio := be.TotalSeconds() / pe.TotalSeconds(); ratio > rep.MaxDownstreamPenalty {
				rep.MaxDownstreamPenalty = ratio
			}
		}
	}
}

// PrintPredicateReport renders the report.
func PrintPredicateReport(w io.Writer, rep *PredicateReport) {
	writeHeader(w, "Predicate suite: filter-and-refine on streets |R| x rivers |S|")
	fmt.Fprintf(w, "|R| = %d, |S| = %d, page %d bytes, eps = %g, k = %d\n\n",
		rep.NR, rep.NS, rep.Config.PageSize, rep.Config.Epsilon, rep.Config.K)
	fmt.Fprintf(w, "%-14s %10s %10s %10s %12s %10s %12s %12s %7s\n",
		"predicate", "candidates", "exact", "filter-IO", "filter-comps", "refine-ops", "filter-s", "refine-s", "parity")
	for _, r := range rep.Rows {
		parity := "OK"
		if !r.ParityOK {
			parity = "FAIL"
		}
		fmt.Fprintf(w, "%-14s %10d %10d %10d %12d %10d %12.3f %12.4f %7s\n",
			r.Predicate, r.Candidates, r.Exact, r.FilterIO, r.FilterComps, r.RefineOps,
			r.FilterIOSeconds+r.FilterCPUSeconds, r.RefineSeconds, parity)
	}
	fmt.Fprintf(w, "\nBuffered-built vs plain-built trees (ROADMAP 5(b)): build %v -> %v (%.2fx)\n",
		rep.BuildPlainWall.Round(time.Millisecond), rep.BuildBufferedWall.Round(time.Millisecond), rep.BuildSpeedup)
	fmt.Fprintf(w, "%-14s %10s %10s %12s %12s %10s %10s %8s\n",
		"predicate", "plain-IO", "buf-IO", "plain-comps", "buf-comps", "plain-s", "buf-s", "ratio")
	for _, r := range rep.BuildRows {
		ratio := 0.0
		if r.PlainSeconds > 0 {
			ratio = r.BufferedSeconds / r.PlainSeconds
		}
		fmt.Fprintf(w, "%-14s %10d %10d %12d %12d %10.3f %10.3f %8.3f\n",
			r.Predicate, r.PlainIO, r.BufferedIO, r.PlainComps, r.BufferedComps, r.PlainSeconds, r.BufferedSeconds, ratio)
	}
	fmt.Fprintf(w, "worst downstream cost ratio buffered/plain: %.3f\n", rep.MaxDownstreamPenalty)
	if len(rep.Failures) > 0 {
		fmt.Fprintf(w, "\nFAILURES (%d):\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Fprintf(w, "  - %s\n", f)
		}
	} else {
		fmt.Fprintln(w, "\nAll parity checks passed.")
	}
}
