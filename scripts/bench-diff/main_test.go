package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const cannedConfig = `{
  "workloads": [{"name": "batch"}, {"name": "serve-read"}],
  "end_to_end": [
    {"name": "knn_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "join_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25}
  ],
  "per_layer": [{"name": "join.pairs", "better": "lower"}]
}`

// cannedRun is one run's output as bench/run.sh prints it: notes, the
// human-readable table, then the result line.
func cannedRun(workload string, failed int, knn, join, ops float64) string {
	return fmt.Sprintf(`# workload=%s seed=1 window=24s trace=false
# GOMAXPROCS=2 nproc=2 go1.24.0
knn_p50_ms                                      %g ms
{"correct":true,"attempted":100,"failed":%d,"metrics":{"knn_p50_ms":{"value":%g,"unit":"ms"},"join_p50_ms":{"value":%g,"unit":"ms"},"ops_per_s":{"value":%g,"unit":"1/s"}}}
`, workload, knn, failed, knn, join, ops)
}

func runDiff(t *testing.T, parent, change string) (int, string) {
	t.Helper()
	return runDiffConfig(t, cannedConfig, parent, change)
}

func runDiffConfig(t *testing.T, config, parent, change string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := write("BENCHMARK.json", config)
	var out, errOut bytes.Buffer
	code := realMain([]string{"-config", cfg, write("parent", parent), write("change", change)}, &out, &errOut)
	return code, out.String() + errOut.String()
}

// row returns the printed row of metric m, its fields split on blanks.
func row(t *testing.T, out, m string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == m {
			return f
		}
	}
	t.Fatalf("no row for %s in\n%s", m, out)
	return nil
}

func TestBenchDiffVerdicts(t *testing.T) {
	var parent, change strings.Builder
	for i, knn := range []float64{15, 16, 14} {
		parent.WriteString(cannedRun("batch", 0, knn, 18, 50))
		change.WriteString(cannedRun("batch", 0, knn*2/3, 18.5+float64(i), 50*1.3))
	}
	code, out := runDiff(t, parent.String(), change.String())
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	for m, want := range map[string][]string{
		"knn_p50_ms":  {"15", "10", "0.667", "3/3", "1", "better"},
		"join_p50_ms": {"18", "19.5", "1.083", "0/3", "0", "inside"},
		"ops_per_s":   {"50", "65", "1.300", "3/3", "0", "better"},
	} {
		if got := row(t, out, m)[1:]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: %v, want %v", m, got, want)
		}
	}
	if !regexp.MustCompile(`batch: 3 parent runs, 3 change runs; failed ops 0\.0000% -> 0\.0000%\n`).MatchString(out) {
		t.Errorf("no failed-op line for batch in\n%s", out)
	}
	if strings.Contains(out, "serve-read") {
		t.Errorf("a workload neither side ran is listed:\n%s", out)
	}
}

func TestBenchDiffFailsOnRegressions(t *testing.T) {
	parent := cannedRun("serve-read", 0, 20, 7, 100) + cannedRun("serve-read", 0, 21, 7, 100)
	for name, tc := range map[string]struct {
		change string
		metric string // the row that must read "worse", or "" for a run-level failure
		note   string
	}{
		"worse outside its bound": {cannedRun("serve-read", 0, 27, 7, 100) + cannedRun("serve-read", 0, 26, 7, 100), "knn_p50_ms", ""},
		"fewer ops per second":    {cannedRun("serve-read", 0, 20, 7, 70) + cannedRun("serve-read", 0, 21, 7, 74), "ops_per_s", ""},
		"more failed ops":         {cannedRun("serve-read", 1, 20, 7, 100) + cannedRun("serve-read", 0, 21, 7, 100), "", "HIGHER"},
		"an incorrect run":        {strings.Replace(cannedRun("serve-read", 0, 20, 7, 100), `"correct":true`, `"correct":false`, 1), "", "NOT CORRECT"},
	} {
		code, out := runDiff(t, parent, tc.change)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1:\n%s", name, code, out)
		}
		if tc.metric != "" {
			if f := row(t, out, tc.metric); f[len(f)-1] != "worse" {
				t.Errorf("%s: row %v, want verdict worse", name, f)
			}
		} else if !strings.Contains(out, tc.note) {
			t.Errorf("%s: no %q in\n%s", name, tc.note, out)
		}
	}
}

func TestBenchDiffRejectsBadInput(t *testing.T) {
	run := cannedRun("batch", 0, 15, 18, 50)
	for name, change := range map[string]string{
		"a result before any workload line": strings.SplitN(run, "\n", 4)[3],
		"a broken result line":              strings.Replace(run, `"metrics":{`, `"metrics":`, 1),
	} {
		if code, out := runDiff(t, run, change); code != 2 {
			t.Errorf("%s: exit %d, want 2:\n%s", name, code, out)
		}
	}
}

// tracedRun is a traced run's result line carrying two exact counts.
func tracedRun(pairs, comparisons float64) string {
	return fmt.Sprintf(`# workload=batch seed=1 window=24s trace=true
{"correct":true,"attempted":100,"failed":0,"metrics":{"join_p50_ms":{"value":18,"unit":"ms"},"join.pairs":{"value":%g,"unit":"count"},"join.comparisons":{"value":%g,"unit":"count"}}}
`, pairs, comparisons)
}

// TestBenchDiffExactCounts: an exact count of traced runs reads "equal"
// when every run of both sides has the same value and "changed" when any
// differs — between the sides or within one — and neither verdict is a
// regression.
func TestBenchDiffExactCounts(t *testing.T) {
	cfg := strings.Replace(cannedConfig, `"per_layer": [{"name": "join.pairs", "better": "lower"}]`,
		`"per_layer": [{"name": "join.pairs", "better": "lower"}, {"name": "join.comparisons", "better": "lower"}]`, 1)
	for name, tc := range map[string]struct {
		parent, change     string
		pairs, comparisons string
	}{
		"equal":                 {tracedRun(100, 7) + tracedRun(100, 7), tracedRun(100, 7) + tracedRun(100, 7), "equal", "equal"},
		"changed by the change": {tracedRun(100, 7) + tracedRun(100, 7), tracedRun(100, 7) + tracedRun(101, 6), "changed", "changed"},
		"changed within a side": {tracedRun(100, 7) + tracedRun(100, 8), tracedRun(100, 7) + tracedRun(100, 7), "equal", "changed"},
	} {
		code, out := runDiffConfig(t, cfg, tc.parent, tc.change)
		if code != 0 {
			t.Errorf("%s: exit %d, want 0:\n%s", name, code, out)
		}
		for m, want := range map[string]string{"join.pairs": tc.pairs, "join.comparisons": tc.comparisons} {
			if f := row(t, out, m); f[len(f)-1] != want {
				t.Errorf("%s: row %v, want verdict %s", name, f, want)
			}
		}
		if f := row(t, out, "join_p50_ms"); f[len(f)-1] != "inside" {
			t.Errorf("%s: row %v, want verdict inside", name, f)
		}
	}
}
