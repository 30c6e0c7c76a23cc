package experiments

import (
	"fmt"
	"io"

	"repro/internal/costmodel"
	"repro/internal/join"
)

// ---------------------------------------------------------------------------
// Figure 2: estimated execution time of SpatialJoin1 (CPU vs I/O).
// ---------------------------------------------------------------------------

// FigurePoint is one bar of Figures 2 and 8: the estimated execution time of
// a join for one page size and buffer size, split into I/O and CPU time.
type FigurePoint struct {
	PageSize int
	BufferKB int
	Estimate costmodel.Estimate
}

// Figure2 estimates the execution time of SpatialJoin1 over the page-size and
// buffer-size grid, using the paper's cost constants.
func (s *Suite) Figure2() []FigurePoint {
	return s.figureFor(join.SJ1)
}

// Figure8 is the same estimation for SpatialJoin4, the paper's recommended
// algorithm.
func (s *Suite) Figure8() []FigurePoint {
	return s.figureFor(join.SJ4)
}

func (s *Suite) figureFor(method join.Method) []FigurePoint {
	var points []FigurePoint
	for _, ps := range s.cfg.PageSizes {
		r, t := s.mainPair(ps)
		for _, bufKB := range s.cfg.BufferSizesKB {
			jr := s.runJoin(r, t, method, bufKB, nil)
			points = append(points, FigurePoint{
				PageSize: ps,
				BufferKB: bufKB,
				Estimate: s.model.Estimate(jr.Metrics.DiskAccesses(), ps, jr.Metrics.TotalComparisons()),
			})
		}
	}
	return points
}

// PrintFigure prints the estimated total time per configuration and the
// CPU/I-O split, which is the information carried by the paper's bar charts.
func PrintFigure(w io.Writer, s *Suite, caption string, points []FigurePoint) {
	writeHeader(w, caption)
	fmt.Fprintf(w, "%-12s %-12s %12s %12s %12s %10s\n",
		"page size", "buffer", "total (s)", "I/O (s)", "CPU (s)", "bound")
	for _, p := range points {
		bound := "CPU"
		if p.Estimate.IOBound() {
			bound = "I/O"
		}
		fmt.Fprintf(w, "%-12s %-12s %12.1f %12.1f %12.1f %10s\n",
			formatKB(p.PageSize), fmt.Sprintf("%d KB", p.BufferKB),
			p.Estimate.TotalSeconds(), p.Estimate.IOSeconds, p.Estimate.CPUSeconds, bound)
	}
}

// ---------------------------------------------------------------------------
// Figure 9: improvement factor of SJ4 over SJ1 and SJ2.
// ---------------------------------------------------------------------------

// Figure9Point is one bar of Figure 9: the estimated-total-time improvement
// factor of SJ4 over a reference algorithm for one configuration.
type Figure9Point struct {
	PageSize int
	BufferKB int
	OverSJ1  float64
	OverSJ2  float64
}

// Figure9 computes the improvement factor of SJ4 over SJ1 and over SJ2 in
// estimated total execution time.
func (s *Suite) Figure9() []Figure9Point {
	var points []Figure9Point
	for _, ps := range s.cfg.PageSizes {
		r, t := s.mainPair(ps)
		for _, bufKB := range s.cfg.BufferSizesKB {
			est := func(m join.Method) costmodel.Estimate {
				jr := s.runJoin(r, t, m, bufKB, nil)
				return s.model.Estimate(jr.Metrics.DiskAccesses(), ps, jr.Metrics.TotalComparisons())
			}
			e1, e2, e4 := est(join.SJ1), est(join.SJ2), est(join.SJ4)
			points = append(points, Figure9Point{
				PageSize: ps,
				BufferKB: bufKB,
				OverSJ1:  costmodel.Speedup(e1, e4),
				OverSJ2:  costmodel.Speedup(e2, e4),
			})
		}
	}
	return points
}

// PrintFigure9 prints the improvement factors of Figure 9.
func PrintFigure9(w io.Writer, points []Figure9Point) {
	writeHeader(w, "Figure 9: Improvement factor of SJ4 in total join time")
	fmt.Fprintf(w, "%-12s %-12s %14s %14s\n", "page size", "buffer", "vs SJ1", "vs SJ2")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %-12s %14.2f %14.2f\n",
			formatKB(p.PageSize), fmt.Sprintf("%d KB", p.BufferKB), p.OverSJ1, p.OverSJ2)
	}
}

// ---------------------------------------------------------------------------
// Figure 10: improvement factor of SJ4 over SJ1 for the tests (A)-(E).
// ---------------------------------------------------------------------------

// Figure10Point is one bar of Figure 10: the improvement factor of SJ4 over
// SJ1 for one test pair and page size at a 128 KByte buffer.
type Figure10Point struct {
	Test     string
	PageSize int
	Factor   float64
}

// Figure10BufferKB is the buffer size the paper uses for Figure 10.
const Figure10BufferKB = 128

// Figure10 computes the improvement factors for the five test pairs.
func (s *Suite) Figure10() []Figure10Point {
	var points []Figure10Point
	for _, p := range s.testPairs() {
		for _, ps := range s.cfg.PageSizes {
			r := s.tree(p.rName, p.r, ps)
			t := s.tree(p.sName, p.s, ps)
			est := func(m join.Method) costmodel.Estimate {
				jr := s.runJoin(r, t, m, Figure10BufferKB, nil)
				return s.model.Estimate(jr.Metrics.DiskAccesses(), ps, jr.Metrics.TotalComparisons())
			}
			points = append(points, Figure10Point{
				Test:     p.name,
				PageSize: ps,
				Factor:   costmodel.Speedup(est(join.SJ1), est(join.SJ4)),
			})
		}
	}
	return points
}

// PrintFigure10 prints the improvement factors of Figure 10.
func PrintFigure10(w io.Writer, points []Figure10Point) {
	writeHeader(w, "Figure 10: Improvement factor of SJ4 over SJ1 for tests (A)-(E), 128 KB buffer")
	fmt.Fprintf(w, "%-6s %-12s %14s\n", "test", "page size", "factor")
	for _, p := range points {
		fmt.Fprintf(w, "%-6s %-12s %14.2f\n", "("+p.Test+")", formatKB(p.PageSize), p.Factor)
	}
}

// ---------------------------------------------------------------------------
// Whole-suite driver.
// ---------------------------------------------------------------------------

// RunAll executes every table and figure of the paper in order and writes the
// formatted output to w.
func (s *Suite) RunAll(w io.Writer) {
	fmt.Fprintf(w, "Spatial join experiments (scale %.3f of the paper's cardinalities)\n", s.cfg.Scale)
	PrintTable1(w, s.Table1())
	t2 := s.Table2()
	PrintTable2(w, s, t2)
	PrintFigure(w, s, "Figure 2: Estimated execution time of SpatialJoin1", s.Figure2())
	PrintTable3(w, s.Table3())
	PrintTable4(w, s.Table4())
	PrintTable5(w, s.Table5())
	PrintTable6(w, s, s.Table6())
	PrintTable7(w, s.Table7())
	PrintFigure(w, s, "Figure 8: Estimated execution time of SpatialJoin4", s.Figure8())
	PrintFigure9(w, s.Figure9())
	PrintTable8(w, s.Table8())
	PrintFigure10(w, s.Figure10())
}
