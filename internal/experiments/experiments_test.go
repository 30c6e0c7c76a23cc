package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/storage"
)

// tinySuite keeps the experiment tests fast: ~1% of the paper's
// cardinalities, two page sizes, three buffer sizes.
func tinySuite() *Suite {
	return NewSuite(Config{
		Scale:         0.01,
		PageSizes:     []int{storage.PageSize1K, storage.PageSize2K},
		BufferSizesKB: []int{0, 32, 512},
		UsePathBuffer: true,
	})
}

func TestConfigDefaults(t *testing.T) {
	s := NewSuite(Config{})
	cfg := s.Config()
	if cfg.Scale != DefaultScale {
		t.Errorf("Scale = %g", cfg.Scale)
	}
	if len(cfg.PageSizes) != 4 || len(cfg.BufferSizesKB) != len(DefaultBufferSizesKB) {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestTable1Shape(t *testing.T) {
	s := tinySuite()
	rows := s.Table1()
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	if rows[0].M != 51 || rows[1].M != 102 {
		t.Errorf("capacities = %d, %d; want 51, 102", rows[0].M, rows[1].M)
	}
	// Larger pages mean fewer pages and equal or lower height (paper Table 1).
	if rows[1].R.DataPages >= rows[0].R.DataPages {
		t.Errorf("data pages must shrink with page size: %d vs %d", rows[1].R.DataPages, rows[0].R.DataPages)
	}
	if rows[1].R.Height > rows[0].R.Height {
		t.Errorf("height must not grow with page size")
	}
	if rows[0].TotalPages != rows[0].R.TotalPages()+rows[0].S.TotalPages() {
		t.Errorf("TotalPages inconsistent")
	}
}

func TestTable2Shape(t *testing.T) {
	s := tinySuite()
	res := s.Table2()
	if len(res.Cells) != len(s.Config().PageSizes)*len(s.Config().BufferSizesKB) {
		t.Fatalf("unexpected cell count %d", len(res.Cells))
	}
	// Within one page size, more buffer never means more accesses.  (Accesses
	// may legitimately fall below |R|+|S|: the paper notes that the union of
	// directory rectangles need not cover the whole data space, so some pages
	// are never required.)
	for _, ps := range s.Config().PageSizes {
		var prev int64 = -1
		for _, bufKB := range s.Config().BufferSizesKB {
			for _, c := range res.Cells {
				if c.PageSize != ps || c.BufferKB != bufKB {
					continue
				}
				if prev >= 0 && c.DiskAccesses > prev {
					t.Errorf("page %d: accesses grew with buffer (%d -> %d)", ps, prev, c.DiskAccesses)
				}
				prev = c.DiskAccesses
				if c.DiskAccesses <= 0 {
					t.Errorf("page %d: no accesses recorded", ps)
				}
			}
		}
		if res.Comparisons[ps] <= 0 {
			t.Errorf("page %d: no comparisons recorded", ps)
		}
		if res.OptimalAccesses[ps] <= 0 {
			t.Errorf("page %d: optimum row missing", ps)
		}
	}
	// Comparisons grow superlinearly with the page size (paper Table 2).
	if res.Comparisons[storage.PageSize2K] <= res.Comparisons[storage.PageSize1K] {
		t.Errorf("comparisons should grow with page size: %d vs %d",
			res.Comparisons[storage.PageSize2K], res.Comparisons[storage.PageSize1K])
	}
}

func TestTable3And4Shape(t *testing.T) {
	s := tinySuite()
	t3 := s.Table3()
	for _, row := range t3 {
		if row.PerformanceGain <= 1 {
			t.Errorf("page %d: restriction gain %.2f should exceed 1", row.PageSize, row.PerformanceGain)
		}
		if row.SJ2Comparisons >= row.SJ1Comparisons {
			t.Errorf("page %d: SJ2 must use fewer comparisons", row.PageSize)
		}
	}
	t4 := s.Table4()
	for _, row := range t4 {
		if row.V2Join >= row.V1Join {
			t.Errorf("page %d: restriction should reduce the sweep's join comparisons (%d vs %d)",
				row.PageSize, row.V2Join, row.V1Join)
		}
		if row.V2RatioSJ1 <= 1 {
			t.Errorf("page %d: sorted+restricted join must beat SJ1 (ratio %.2f)", row.PageSize, row.V2RatioSJ1)
		}
		if row.V2RatioSJ2 <= 1 {
			t.Errorf("page %d: sorted join must beat the unsorted restricted join (ratio %.2f)", row.PageSize, row.V2RatioSJ2)
		}
		if row.V1Sort == 0 || row.V2Sort == 0 {
			t.Errorf("page %d: sorting comparisons missing", row.PageSize)
		}
		// The repeat factor is priced in whole sorting passes over both
		// trees, the paper's unit.
		if row.SortPass == 0 || row.RepeatFactor <= 0 {
			t.Errorf("page %d: sorting pass %d, repeat factor %.2f", row.PageSize, row.SortPass, row.RepeatFactor)
		}
	}
	if first, last := t4[0], t4[len(t4)-1]; last.RepeatFactor <= first.RepeatFactor {
		t.Errorf("repeat factor should grow with the page size: %.2f at %d, %.2f at %d",
			first.RepeatFactor, first.PageSize, last.RepeatFactor, last.PageSize)
	}
}

func TestTable5And6Shape(t *testing.T) {
	s := NewSuite(Config{
		Scale:         0.01,
		PageSizes:     []int{storage.PageSize1K, Table5PageSize},
		BufferSizesKB: []int{0, 32, 512},
		UsePathBuffer: true,
	})
	t5 := s.Table5()
	if len(t5) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(t5))
	}
	var sumSJ3, sumSJ4 int64
	for i, row := range t5 {
		sumSJ3 += row.SJ3
		sumSJ4 += row.SJ4
		if i > 0 && row.SJ4 > t5[i-1].SJ4 {
			t.Errorf("SJ4 accesses grew with the buffer")
		}
	}
	// Pinning (SJ4) does not lose against plain sweep order (SJ3) overall;
	// individual rows may differ by a few pages at this scale.
	if sumSJ4 > sumSJ3 {
		t.Errorf("SJ4 total accesses (%d) exceed SJ3 total accesses (%d)", sumSJ4, sumSJ3)
	}
	t6 := s.Table6()
	// Individual cells may fluctuate by a page or two at this tiny scale (the
	// paper's own Table 6 has a 154% cell), so the shape check is on the
	// aggregate: over the whole grid SJ4 must not need more accesses than SJ1.
	var totalSJ1, totalSJ4 int64
	for _, c := range t6.Cells {
		totalSJ1 += c.SJ1
		totalSJ4 += c.SJ4
		if c.PercentOfSJ1 <= 0 || c.PercentOfSJ1 > 200 {
			t.Errorf("page %d buffer %d: percentage %.1f out of range", c.PageSize, c.BufferKB, c.PercentOfSJ1)
		}
		if t6.Optimum[c.PageSize] <= 0 {
			t.Errorf("missing optimum for page %d", c.PageSize)
		}
	}
	if totalSJ4 > totalSJ1 {
		t.Errorf("SJ4 total accesses (%d) exceed SJ1 total accesses (%d)", totalSJ4, totalSJ1)
	}
}

func TestTable7Shape(t *testing.T) {
	// Scale 0.02 keeps the run fast while still making the large street tree
	// one level taller than the river tree at the 2 KByte page size, which is
	// the situation Table 7 studies.
	s := NewSuite(Config{
		Scale:         0.02,
		PageSizes:     []int{Table7PageSize},
		BufferSizesKB: []int{0, 128},
		UsePathBuffer: true,
	})
	if hBig, hSmall := s.tree("largeStreets", s.largeStreets(), Table7PageSize).Height(),
		s.tree("rivers", s.rivers(), Table7PageSize).Height(); hBig <= hSmall {
		t.Fatalf("test setup: expected different heights, got %d and %d", hBig, hSmall)
	}
	rows := s.Table7()
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	// Paper Table 7: policy (b) clearly beats (a) for small buffers and the
	// policies converge for large buffers.
	small := rows[0]
	if small.PolicyB > small.PolicyA {
		t.Errorf("zero buffer: policy (b) (%d) must not need more accesses than (a) (%d)", small.PolicyB, small.PolicyA)
	}
	if float64(small.PolicyA) < 1.2*float64(small.PolicyB) {
		t.Errorf("zero buffer: expected a clear gap between (a)=%d and (b)=%d", small.PolicyA, small.PolicyB)
	}
}

func TestTable8AndFigure10Shape(t *testing.T) {
	s := NewSuite(Config{
		Scale:         0.01,
		PageSizes:     []int{storage.PageSize1K},
		BufferSizesKB: []int{0, 128},
		UsePathBuffer: true,
	})
	rows := s.Table8()
	if len(rows) != 5 {
		t.Fatalf("expected 5 test pairs, got %d", len(rows))
	}
	byName := map[string]Table8Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Intersections <= 0 {
			t.Errorf("test %s produced no intersections", r.Name)
		}
	}
	// Region data (E) produces far more intersections per object than the
	// line-data tests, and the self join (D) more than the street/river join
	// (A) — the qualitative ordering of the paper's Table 8.
	perObject := func(r Table8Row) float64 { return float64(r.Intersections) / float64(r.RCount+r.SCount) }
	if perObject(byName["E"]) <= perObject(byName["A"]) {
		t.Errorf("region join selectivity should exceed the line join selectivity")
	}
	if byName["D"].Intersections <= byName["A"].Intersections {
		t.Errorf("self join (D) should produce more intersections than test (A)")
	}

	points := s.Figure10()
	if len(points) != 5 {
		t.Fatalf("expected 5 figure-10 points, got %d", len(points))
	}
	for _, p := range points {
		if p.Factor < 1 {
			t.Errorf("test %s: SJ4 should not be slower than SJ1 (factor %.2f)", p.Test, p.Factor)
		}
	}
}

func TestFiguresShape(t *testing.T) {
	s := tinySuite()
	f2 := s.Figure2()
	f8 := s.Figure8()
	if len(f2) != len(f8) || len(f2) == 0 {
		t.Fatalf("figure point counts: %d vs %d", len(f2), len(f8))
	}
	var total2, total8 float64
	for i := range f2 {
		total2 += f2[i].Estimate.TotalSeconds()
		total8 += f8[i].Estimate.TotalSeconds()
		if f2[i].Estimate.TotalSeconds() <= 0 {
			t.Errorf("zero estimate in figure 2")
		}
	}
	if total8 >= total2 {
		t.Errorf("SJ4 (%.1fs) must be faster overall than SJ1 (%.1fs)", total8, total2)
	}
	for _, p := range s.Figure9() {
		if p.OverSJ1 < 1 {
			t.Errorf("figure 9: SJ4 slower than SJ1 (%.2f) for page %d buffer %d", p.OverSJ1, p.PageSize, p.BufferKB)
		}
		if p.OverSJ2 <= 0 {
			t.Errorf("figure 9: non-positive factor vs SJ2")
		}
	}
}

func TestRunAllPrintsEveryTableAndFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run is slow")
	}
	s := NewSuite(Config{
		Scale:         0.01,
		PageSizes:     []int{storage.PageSize1K, storage.PageSize2K, storage.PageSize4K},
		BufferSizesKB: []int{0, 128},
		UsePathBuffer: true,
	})
	var buf bytes.Buffer
	s.RunAll(&buf)
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Figure 2", "Table 3", "Table 4",
		"Table 5", "Table 6", "Table 7", "Figure 8", "Figure 9",
		"Table 8", "Figure 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output is missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Errorf("RunAll output suspiciously short (%d bytes)", len(out))
	}
}

func TestBulkLoadSuiteAgrees(t *testing.T) {
	// The bulk-loaded configuration must produce the same join cardinalities
	// as the dynamically built one (the trees differ, the result set cannot).
	dynamic := NewSuite(Config{Scale: 0.01, PageSizes: []int{storage.PageSize1K}, BufferSizesKB: []int{128}})
	packed := NewSuite(Config{Scale: 0.01, PageSizes: []int{storage.PageSize1K}, BufferSizesKB: []int{128}, BulkLoad: true})
	a := dynamic.Table8()
	b := packed.Table8()
	for i := range a {
		if a[i].Intersections != b[i].Intersections {
			t.Errorf("test %s: dynamic found %d pairs, bulk-loaded %d",
				a[i].Name, a[i].Intersections, b[i].Intersections)
		}
	}
}

func TestSortedKeysHelper(t *testing.T) {
	m := map[int]string{3: "c", 1: "a", 2: "b"}
	keys := sortedKeys(m)
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Fatalf("sortedKeys = %v", keys)
	}
}

func TestTableUpdatesShape(t *testing.T) {
	s := tinySuite()
	rows := s.TableUpdates()
	if len(rows) != UpdateRounds {
		t.Fatalf("TableUpdates returned %d rows, want %d", len(rows), UpdateRounds)
	}
	for i, row := range rows {
		if row.Round != i+1 {
			t.Fatalf("row %d is round %d, want round %d", i, row.Round, i+1)
		}
		if row.Pairs <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
		if row.HintHitRate <= 0 || row.HintHitRate > 1 {
			t.Errorf("round %d: hint hit rate %v outside (0,1]", row.Round, row.HintHitRate)
		}
	}

	var buf bytes.Buffer
	PrintTableUpdates(&buf, rows)
	out := buf.String()
	for _, want := range []string{"round", "pairs", "hint rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintTableUpdates output is missing %q", want)
		}
	}
}
