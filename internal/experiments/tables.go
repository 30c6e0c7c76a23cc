package experiments

import (
	"fmt"
	"io"

	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Table 1: properties of the R*-trees R and S per page size.
// ---------------------------------------------------------------------------

// Table1Row is one row of Table 1.
type Table1Row struct {
	PageSize   int
	M          int
	R, S       rtree.Stats
	TotalPages int
}

// Table1 builds the R*-trees of the main pair for every configured page size
// and reports their structural properties.
func (s *Suite) Table1() []Table1Row {
	var rows []Table1Row
	for _, ps := range s.cfg.PageSizes {
		r, t := s.mainPair(ps)
		rs, ts := r.Stats(), t.Stats()
		rows = append(rows, Table1Row{
			PageSize:   ps,
			M:          storage.CapacityForPage(ps),
			R:          rs,
			S:          ts,
			TotalPages: rs.TotalPages() + ts.TotalPages(),
		})
	}
	return rows
}

// PrintTable1 writes the rows in the layout of the paper's Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	writeHeader(w, "Table 1: Properties of R*-trees R and S")
	fmt.Fprintf(w, "%-10s %5s | %6s %7s %8s | %6s %7s %8s | %8s\n",
		"page size", "M", "height", "|R|dir", "|R|data", "height", "|S|dir", "|S|data", "|R|+|S|")
	for _, row := range rows {
		fmt.Fprintf(w, "%-10s %5d | %6d %7d %8d | %6d %7d %8d | %8d\n",
			formatKB(row.PageSize), row.M,
			row.R.Height, row.R.DirPages, row.R.DataPages,
			row.S.Height, row.S.DirPages, row.S.DataPages,
			row.TotalPages)
	}
}

// ---------------------------------------------------------------------------
// Table 2: disk accesses and comparisons of SpatialJoin1.
// ---------------------------------------------------------------------------

// Table2Cell is the number of disk accesses of SJ1 for one page size and one
// buffer size.
type Table2Cell struct {
	PageSize     int
	BufferKB     int
	DiskAccesses int64
}

// Table2Result captures the paper's Table 2.
type Table2Result struct {
	Cells []Table2Cell
	// OptimalAccesses is the |R|+|S| row ("opt. buffer size").
	OptimalAccesses map[int]int64
	// Comparisons is the (buffer-independent) number of join comparisons per
	// page size.
	Comparisons map[int]int64
}

// Table2 runs SpatialJoin1 for every page size and buffer size.
func (s *Suite) Table2() Table2Result {
	res := Table2Result{
		OptimalAccesses: make(map[int]int64),
		Comparisons:     make(map[int]int64),
	}
	for _, ps := range s.cfg.PageSizes {
		r, t := s.mainPair(ps)
		res.OptimalAccesses[ps] = int64(r.Stats().TotalPages() + t.Stats().TotalPages())
		for _, bufKB := range s.cfg.BufferSizesKB {
			jr := s.runJoin(r, t, join.SJ1, bufKB, nil)
			res.Cells = append(res.Cells, Table2Cell{
				PageSize:     ps,
				BufferKB:     bufKB,
				DiskAccesses: jr.Metrics.DiskAccesses(),
			})
			res.Comparisons[ps] = jr.Metrics.Comparisons
		}
	}
	return res
}

// PrintTable2 writes the result in the layout of the paper's Table 2.
func PrintTable2(w io.Writer, s *Suite, res Table2Result) {
	writeHeader(w, "Table 2: Number of disk accesses and comparisons of SpatialJoin1")
	printAccessMatrix(w, s, func(ps, bufKB int) int64 {
		for _, c := range res.Cells {
			if c.PageSize == ps && c.BufferKB == bufKB {
				return c.DiskAccesses
			}
		}
		return 0
	})
	fmt.Fprintf(w, "%-16s", "opt. buffer")
	for _, ps := range s.cfg.PageSizes {
		fmt.Fprintf(w, " %12d", res.OptimalAccesses[ps])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s", "# comparisons")
	for _, ps := range s.cfg.PageSizes {
		fmt.Fprintf(w, " %12d", res.Comparisons[ps])
	}
	fmt.Fprintln(w)
}

// printAccessMatrix prints a buffer-size x page-size matrix of values.
func printAccessMatrix(w io.Writer, s *Suite, value func(pageSize, bufferKB int) int64) {
	fmt.Fprintf(w, "%-16s", "buffer \\ page")
	for _, ps := range s.cfg.PageSizes {
		fmt.Fprintf(w, " %12s", formatKB(ps))
	}
	fmt.Fprintln(w)
	for _, bufKB := range s.cfg.BufferSizesKB {
		fmt.Fprintf(w, "%-16s", fmt.Sprintf("%d KB", bufKB))
		for _, ps := range s.cfg.PageSizes {
			fmt.Fprintf(w, " %12d", value(ps, bufKB))
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Table 3: comparisons with and without restricting the search space.
// ---------------------------------------------------------------------------

// Table3Row compares SJ1 and SJ2 for one page size.
type Table3Row struct {
	PageSize        int
	SJ1Comparisons  int64
	SJ2Comparisons  int64
	PerformanceGain float64
}

// Table3 runs SJ1 and SJ2 per page size and reports the comparison counts.
func (s *Suite) Table3() []Table3Row {
	var rows []Table3Row
	for _, ps := range s.cfg.PageSizes {
		r, t := s.mainPair(ps)
		r1 := s.runJoin(r, t, join.SJ1, 0, nil)
		r2 := s.runJoin(r, t, join.SJ2, 0, nil)
		gain := 0.0
		if r2.Metrics.Comparisons > 0 {
			gain = float64(r1.Metrics.Comparisons) / float64(r2.Metrics.Comparisons)
		}
		rows = append(rows, Table3Row{
			PageSize:        ps,
			SJ1Comparisons:  r1.Metrics.Comparisons,
			SJ2Comparisons:  r2.Metrics.Comparisons,
			PerformanceGain: gain,
		})
	}
	return rows
}

// PrintTable3 writes the rows in the layout of the paper's Table 3.
func PrintTable3(w io.Writer, rows []Table3Row) {
	writeHeader(w, "Table 3: Comparisons with/without restricting the search space")
	fmt.Fprintf(w, "%-18s", "")
	for _, row := range rows {
		fmt.Fprintf(w, " %12s", formatKB(row.PageSize))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s", "SpatialJoin1")
	for _, row := range rows {
		fmt.Fprintf(w, " %12d", row.SJ1Comparisons)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s", "SpatialJoin2")
	for _, row := range rows {
		fmt.Fprintf(w, " %12d", row.SJ2Comparisons)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s", "performance gain")
	for _, row := range rows {
		fmt.Fprintf(w, " %12.2f", row.PerformanceGain)
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------------
// Table 4: effect of spatial sorting (sorted intersection test).
// ---------------------------------------------------------------------------

// Table4Row captures one page size of the paper's Table 4.
type Table4Row struct {
	PageSize int
	// Version (I): sorting + plane sweep without search-space restriction.
	// The sorting rows are what section 4.2 charges: one stable sort of the
	// whole page for every counted read that brings it in (the table runs
	// without an LRU buffer), so they depend on the read schedule, not on the
	// restriction.
	V1Join int64
	V1Sort int64
	// Version (II): sorting + plane sweep with search-space restriction.
	V2Join int64
	V2Sort int64
	// Ratios relative to SJ1 and SJ2 (join comparisons only, assuming sorted
	// nodes, as in the paper's "join-ratio" rows).
	V1RatioSJ1 float64
	V2RatioSJ1 float64
	V2RatioSJ2 float64
	// SortPass is the cost of sorting every page of both trees once.
	SortPass int64
	// RepeatFactor is how many such passes the comparisons version (II) saves
	// against the unsorted restricted join (SJ2) pay for: how often a page
	// could be re-sorted before the sorted join loses.
	RepeatFactor float64
}

// Table4 measures the effect of sorting with and without search-space
// restriction.
func (s *Suite) Table4() []Table4Row {
	var rows []Table4Row
	for _, ps := range s.cfg.PageSizes {
		r, t := s.mainPair(ps)
		sj1 := s.runJoin(r, t, join.SJ1, 0, nil)
		sj2 := s.runJoin(r, t, join.SJ2, 0, nil)
		v1 := s.runJoin(r, t, join.SJ3, 0, func(o *join.Options) { o.DisableRestriction = true })
		v2 := s.runJoin(r, t, join.SJ4, 0, nil)

		row := Table4Row{
			PageSize: ps,
			V1Join:   v1.Metrics.Comparisons,
			V1Sort:   v1.Metrics.SortComparisons,
			V2Join:   v2.Metrics.Comparisons,
			V2Sort:   v2.Metrics.SortComparisons,
		}
		if row.V1Join > 0 {
			row.V1RatioSJ1 = float64(sj1.Metrics.Comparisons) / float64(row.V1Join)
		}
		if row.V2Join > 0 {
			row.V2RatioSJ1 = float64(sj1.Metrics.Comparisons) / float64(row.V2Join)
			row.V2RatioSJ2 = float64(sj2.Metrics.Comparisons) / float64(row.V2Join)
		}
		for _, tree := range []*rtree.Tree{r, t} {
			tree.Walk(func(n *rtree.Node) { row.SortPass += n.XLOrder().SortComparisons })
		}
		if saved := sj2.Metrics.Comparisons - v2.Metrics.Comparisons; saved > 0 && row.SortPass > 0 {
			row.RepeatFactor = float64(saved) / float64(row.SortPass)
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintTable4 writes the rows in the layout of the paper's Table 4.
func PrintTable4(w io.Writer, rows []Table4Row) {
	writeHeader(w, "Table 4: Comparisons of spatial joins with/without sorting")
	fmt.Fprintf(w, "%-34s", "")
	for _, row := range rows {
		fmt.Fprintf(w, " %12s", formatKB(row.PageSize))
	}
	fmt.Fprintln(w)
	printInt64Row := func(label string, get func(Table4Row) int64) {
		fmt.Fprintf(w, "%-34s", label)
		for _, row := range rows {
			fmt.Fprintf(w, " %12d", get(row))
		}
		fmt.Fprintln(w)
	}
	printFloatRow := func(label string, get func(Table4Row) float64) {
		fmt.Fprintf(w, "%-34s", label)
		for _, row := range rows {
			fmt.Fprintf(w, " %12.2f", get(row))
		}
		fmt.Fprintln(w)
	}
	printInt64Row("version (I)  join", func(r Table4Row) int64 { return r.V1Join })
	printInt64Row("version (I)  sorting", func(r Table4Row) int64 { return r.V1Sort })
	printFloatRow("version (I)  join-ratio to SJ1", func(r Table4Row) float64 { return r.V1RatioSJ1 })
	printInt64Row("version (II) join", func(r Table4Row) int64 { return r.V2Join })
	printInt64Row("version (II) sorting", func(r Table4Row) int64 { return r.V2Sort })
	printFloatRow("version (II) join-ratio to SJ1", func(r Table4Row) float64 { return r.V2RatioSJ1 })
	printFloatRow("version (II) join-ratio to SJ2", func(r Table4Row) float64 { return r.V2RatioSJ2 })
	printInt64Row("one sorting pass, all pages", func(r Table4Row) int64 { return r.SortPass })
	printFloatRow("repeat-factor to SJ2", func(r Table4Row) float64 { return r.RepeatFactor })
	fmt.Fprintln(w, "sorting: one stable sort of the whole page per counted page read (no LRU buffer here),")
	fmt.Fprintln(w, "as in section 4.2; repeat-factor: (SJ2 join - version (II) join) / one sorting pass.")
}

// ---------------------------------------------------------------------------
// Table 5: disk accesses of SJ3, SJ4 and SJ5 (read-schedule comparison).
// ---------------------------------------------------------------------------

// Table5Row compares the read schedules for one buffer size at a fixed page
// size (4 KByte in the paper).
type Table5Row struct {
	BufferKB      int
	SJ3, SJ4, SJ5 int64
}

// Table5PageSize is the page size the paper uses for Table 5.
const Table5PageSize = storage.PageSize4K

// Table5 compares the local plane-sweep order (SJ3), plane-sweep order with
// pinning (SJ4) and local z-order (SJ5).
func (s *Suite) Table5() []Table5Row {
	r, t := s.mainPair(Table5PageSize)
	var rows []Table5Row
	for _, bufKB := range s.cfg.BufferSizesKB {
		rows = append(rows, Table5Row{
			BufferKB: bufKB,
			SJ3:      s.runJoin(r, t, join.SJ3, bufKB, nil).Metrics.DiskAccesses(),
			SJ4:      s.runJoin(r, t, join.SJ4, bufKB, nil).Metrics.DiskAccesses(),
			SJ5:      s.runJoin(r, t, join.SJ5, bufKB, nil).Metrics.DiskAccesses(),
		})
	}
	return rows
}

// PrintTable5 writes the rows in the layout of the paper's Table 5.
func PrintTable5(w io.Writer, rows []Table5Row) {
	writeHeader(w, "Table 5: Number of disk accesses of SJ3, SJ4 and SJ5 (4 KByte pages)")
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "buffer size", "SJ3", "SJ4", "SJ5")
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s %12d %12d %12d\n", fmt.Sprintf("%d KB", row.BufferKB), row.SJ3, row.SJ4, row.SJ5)
	}
}

// ---------------------------------------------------------------------------
// Table 6: I/O performance of SJ4 versus SJ1.
// ---------------------------------------------------------------------------

// Table6Cell holds SJ4's accesses and the percentage relative to SJ1 for one
// page size and buffer size.
type Table6Cell struct {
	PageSize     int
	BufferKB     int
	SJ4          int64
	SJ1          int64
	PercentOfSJ1 float64
}

// Table6Result captures the paper's Table 6.
type Table6Result struct {
	Cells   []Table6Cell
	Optimum map[int]int64
}

// Table6 measures SJ4's disk accesses relative to SJ1 over the full page-size
// and buffer-size grid.
func (s *Suite) Table6() Table6Result {
	res := Table6Result{Optimum: make(map[int]int64)}
	for _, ps := range s.cfg.PageSizes {
		r, t := s.mainPair(ps)
		res.Optimum[ps] = int64(r.Stats().TotalPages() + t.Stats().TotalPages())
		for _, bufKB := range s.cfg.BufferSizesKB {
			sj1 := s.runJoin(r, t, join.SJ1, bufKB, nil).Metrics.DiskAccesses()
			sj4 := s.runJoin(r, t, join.SJ4, bufKB, nil).Metrics.DiskAccesses()
			cell := Table6Cell{PageSize: ps, BufferKB: bufKB, SJ4: sj4, SJ1: sj1}
			if sj1 > 0 {
				cell.PercentOfSJ1 = 100 * float64(sj4) / float64(sj1)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res
}

// PrintTable6 writes the result in the layout of the paper's Table 6.
func PrintTable6(w io.Writer, s *Suite, res Table6Result) {
	writeHeader(w, "Table 6: I/O-performance of SJ4 (disk accesses and % of SJ1)")
	fmt.Fprintf(w, "%-14s", "buffer \\ page")
	for _, ps := range s.cfg.PageSizes {
		fmt.Fprintf(w, " %12s  %6s", formatKB(ps), "(%)")
	}
	fmt.Fprintln(w)
	for _, bufKB := range s.cfg.BufferSizesKB {
		fmt.Fprintf(w, "%-14s", fmt.Sprintf("%d KB", bufKB))
		for _, ps := range s.cfg.PageSizes {
			for _, c := range res.Cells {
				if c.PageSize == ps && c.BufferKB == bufKB {
					fmt.Fprintf(w, " %12d  %6.1f", c.SJ4, c.PercentOfSJ1)
				}
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "optimum")
	for _, ps := range s.cfg.PageSizes {
		fmt.Fprintf(w, " %12d  %6s", res.Optimum[ps], "")
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------------
// Table 7: joining R*-trees of different heights (policies a, b, c).
// ---------------------------------------------------------------------------

// Table7Row compares the three height policies for one buffer size.
type Table7Row struct {
	// PageSize is the page size actually used (see Table7 for how it is
	// chosen).
	PageSize                  int
	BufferKB                  int
	PolicyA, PolicyB, PolicyC int64
}

// Table7PageSize is the page size the paper uses for Table 7 (2 KByte, which
// at the paper's full cardinalities makes the large street tree one level
// taller than the river tree).
const Table7PageSize = storage.PageSize2K

// Table7 joins the large street relation with the river relation using the
// three policies of section 4.4.  The experiment is only meaningful when the
// two trees have different heights; at reduced data-set scales the paper's
// 2 KByte page size may yield equal heights, in which case the smallest
// configured page size that produces a height difference is used instead.
func (s *Suite) Table7() []Table7Row {
	pageSize := Table7PageSize
	r := s.tree("largeStreets", s.largeStreets(), pageSize)
	t := s.tree("rivers", s.rivers(), pageSize)
	if r.Height() == t.Height() {
		for _, ps := range s.cfg.PageSizes {
			cr := s.tree("largeStreets", s.largeStreets(), ps)
			ct := s.tree("rivers", s.rivers(), ps)
			if cr.Height() != ct.Height() {
				pageSize, r, t = ps, cr, ct
				break
			}
		}
	}
	var rows []Table7Row
	for _, bufKB := range s.cfg.BufferSizesKB {
		row := Table7Row{PageSize: pageSize, BufferKB: bufKB}
		row.PolicyA = s.runJoin(r, t, join.SJ4, bufKB, func(o *join.Options) { o.HeightPolicy = join.PolicyWindowPerPair }).Metrics.DiskAccesses()
		row.PolicyB = s.runJoin(r, t, join.SJ4, bufKB, func(o *join.Options) { o.HeightPolicy = join.PolicyBatchedWindows }).Metrics.DiskAccesses()
		row.PolicyC = s.runJoin(r, t, join.SJ4, bufKB, func(o *join.Options) { o.HeightPolicy = join.PolicySweepOrder }).Metrics.DiskAccesses()
		rows = append(rows, row)
	}
	return rows
}

// PrintTable7 writes the rows in the layout of the paper's Table 7.
func PrintTable7(w io.Writer, rows []Table7Row) {
	caption := "Table 7: I/O-performance for R*-trees of different height"
	if len(rows) > 0 {
		caption = fmt.Sprintf("%s (%s pages)", caption, formatKB(rows[0].PageSize))
	}
	writeHeader(w, caption)
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "buffer size", "(a)", "(b)", "(c)")
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s %12d %12d %12d\n", fmt.Sprintf("%d KB", row.BufferKB), row.PolicyA, row.PolicyB, row.PolicyC)
	}
}

// ---------------------------------------------------------------------------
// Table 8: characteristics of the test data sets (A)-(E).
// ---------------------------------------------------------------------------

// Table8Row describes one of the paper's five join tests.
type Table8Row struct {
	Name          string
	RCount        int
	RSubject      string
	SCount        int
	SSubject      string
	Intersections int
}

// Table8PageSize is the page size used to count the result cardinality.
const Table8PageSize = storage.PageSize2K

// testPair bundles the named datasets of one of the tests (A)-(E).
type testPair struct {
	name               string
	rName, sName       string
	rSubject, sSubject string
	r, s               []rtree.Item
}

// testPairs returns the five test configurations at the suite's scale.
func (s *Suite) testPairs() []testPair {
	return []testPair{
		{"A", "streets", "rivers", "streets", "rivers & railways", s.streets(), s.rivers()},
		{"B", "streets", "streets2", "streets", "streets", s.streets(), s.streets2()},
		{"C", "largeStreets", "rivers", "streets (large)", "rivers & railways", s.largeStreets(), s.rivers()},
		{"D", "rivers", "rivers", "rivers & railways", "rivers & railways", s.rivers(), s.rivers()},
		{"E", "regionsR", "regionsS", "region data", "region data", s.regionsR(), s.regionsS()},
	}
}

// Table8 reports the cardinalities and result sizes of the five test pairs.
func (s *Suite) Table8() []Table8Row {
	var rows []Table8Row
	for _, p := range s.testPairs() {
		r := s.tree(p.rName, p.r, Table8PageSize)
		t := s.tree(p.sName, p.s, Table8PageSize)
		jr := s.runJoin(r, t, join.SJ4, 128, nil)
		rows = append(rows, Table8Row{
			Name:          p.name,
			RCount:        len(p.r),
			RSubject:      p.rSubject,
			SCount:        len(p.s),
			SSubject:      p.sSubject,
			Intersections: jr.Count,
		})
	}
	return rows
}

// PrintTable8 writes the rows in the layout of the paper's Table 8.
func PrintTable8(w io.Writer, rows []Table8Row) {
	writeHeader(w, "Table 8: Characteristics of the test data sets (A)-(E)")
	fmt.Fprintf(w, "%-4s %10s %-20s %10s %-20s %14s\n", "", "||R||dat", "subject R", "||S||dat", "subject S", "intersections")
	for _, row := range rows {
		fmt.Fprintf(w, "%-4s %10d %-20s %10d %-20s %14d\n",
			"("+row.Name+")", row.RCount, row.RSubject, row.SCount, row.SSubject, row.Intersections)
	}
}

// formatKB renders a page size in the paper's "1 KByte" style.
func formatKB(bytes int) string {
	return fmt.Sprintf("%d KByte", bytes>>10)
}
