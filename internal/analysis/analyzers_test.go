package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer has a golden package under testdata/src/<name> covering at
// least one true positive (a `// want` comment) and one documented
// suppression (a //repolint:ignore with no want: the runner applies the
// driver's suppression first, so the test fails if the ignore stops
// working).

func TestDeterminism(t *testing.T)  { analysistest.Run(t, "determinism", analysis.Determinism) }
func TestAccounting(t *testing.T)   { analysistest.Run(t, "accounting", analysis.Accounting) }
func TestPinUnpin(t *testing.T)     { analysistest.Run(t, "pinunpin", analysis.PinUnpin) }
func TestGuardedBy(t *testing.T)    { analysistest.Run(t, "guardedby", analysis.GuardedBy) }
func TestLatchedErr(t *testing.T)   { analysistest.Run(t, "latchederr", analysis.LatchedErr) }
func TestHotPath(t *testing.T)      { analysistest.Run(t, "hotpath", analysis.HotPath) }
func TestNilness(t *testing.T)      { analysistest.Run(t, "nilness", analysis.Nilness) }
func TestUnusedResult(t *testing.T) { analysistest.Run(t, "unusedresult", analysis.UnusedResult) }
func TestSortSlice(t *testing.T)    { analysistest.Run(t, "sortslice", analysis.SortSlice) }

// TestIgnoreWithoutReasonIsAFinding pins the mandatory-reason rule of the
// suppression grammar: a bare `//repolint:ignore <analyzer>` (no reason) is
// itself a finding. A want comment cannot express this — it would become
// the ignore's reason — so the diagnostics are checked directly.
func TestIgnoreWithoutReasonIsAFinding(t *testing.T) {
	diags, _ := analysistest.Diagnostics(t, "badignore")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the malformed ignore: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "repolint" || !strings.Contains(diags[0].Message, "needs an analyzer name and a reason") {
		t.Fatalf("unexpected diagnostic: %s", diags[0])
	}
}
