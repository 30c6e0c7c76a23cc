// Command bench-diff compares two sets of bench/run.sh outputs, a parent's
// and a change's, metric by metric against the bounds BENCHMARK.json
// declares.
//
// Usage:
//
//	go run ./scripts/bench-diff [-config BENCHMARK.json] PARENT CHANGE
//
// PARENT and CHANGE each hold the standard output of one or more runs of
// bench/run.sh, concatenated (cat runs/parent-*.out > parent.txt).  A
// `# workload=NAME ...` line names the workload the result lines after it
// belong to; a line starting with `{` is one run's result.  With the runs
// of both sides listed in the order they were paired, run i of the parent
// and run i of the change form pair i.
//
// For every workload and every end-to-end metric it prints both medians,
// the change's median over the parent's, the pairs the change won, the
// parent's interquartile distance and a verdict: "better" or "worse" when
// the medians differ by more than the metric's bound (as a fraction of the
// parent's median, in the metric's better direction), "inside" when they do
// not.  Per-layer metrics (traced runs) are listed without a verdict, except
// the exact counts (exactCounts), which read "equal" when every run of both
// sides has the same value and "changed" otherwise.  Per workload it prints
// the failed-op share of each side.
//
// It exits 1 when any metric is worse outside its bound, when the change's
// failed-op share is higher than the parent's, or when a change run is not
// correct; 2 on bad input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// config is the part of BENCHMARK.json the comparison reads.
type config struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // 0 for per-layer metrics
}

// result is one run's result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// exactCounts are the per-layer metrics a traced run counts rather than
// times: a change must leave them equal or explain why they moved.
var exactCounts = []string{
	"join.comparisons",
	"join.disk_reads",
	"join.pairs",
	"join.knn_dist_computations",
	"storage.syncs_per_round",
}

// runs maps a workload to its results in file order.
type runs map[string][]result

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgPath := fs.String("config", "BENCHMARK.json", "the benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench-diff [-config BENCHMARK.json] PARENT CHANGE")
		return 2
	}
	var cfg config
	if err := readJSON(*cfgPath, &cfg); err != nil {
		fmt.Fprintf(stderr, "bench-diff: %v\n", err)
		return 2
	}
	sides := make([]runs, 2)
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench-diff: %v\n", err)
			return 2
		}
		sides[i], err = parseRuns(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bench-diff: %s: %v\n", path, err)
			return 2
		}
	}
	if diff(cfg, sides[0], sides[1], stdout) {
		return 1
	}
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// parseRuns reads bench/run.sh output and files each result line under the
// workload named by the last `# workload=` line before it.
func parseRuns(r io.Reader) (runs, error) {
	out := runs{}
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "# workload="):
			workload = strings.Fields(strings.TrimPrefix(line, "# workload="))[0]
		case strings.HasPrefix(line, "{"):
			if workload == "" {
				return nil, fmt.Errorf("line %d: a result before any `# workload=` line", n)
			}
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("line %d: %v", n, err)
			}
			out[workload] = append(out[workload], res)
		}
	}
	return out, sc.Err()
}

// diff prints the comparison and reports whether it found a regression.
func diff(cfg config, parent, change runs, w io.Writer) (regressed bool) {
	for _, wl := range cfg.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		pf, cf := failedShare(p), failedShare(c)
		fmt.Fprintf(w, "%s: %d parent runs, %d change runs; failed ops %.4f%% -> %.4f%%", wl.Name, len(p), len(c), 100*pf, 100*cf)
		if cf > pf {
			fmt.Fprint(w, "  HIGHER")
			regressed = true
		}
		for _, r := range c {
			if !r.Correct {
				fmt.Fprint(w, "  A CHANGE RUN IS NOT CORRECT")
				regressed = true
				break
			}
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  %-36s %12s %12s %7s %6s %10s  %s\n", "metric", "parent", "change", "ratio", "wins", "parent IQR", "verdict")
		for _, specs := range [][]metricSpec{cfg.EndToEnd, cfg.PerLayer} {
			for _, m := range specs {
				pv, cv := values(p, m.Name), values(c, m.Name)
				if len(pv) == 0 || len(cv) == 0 {
					continue
				}
				pm, cm := quantile(pv, 0.5), quantile(cv, 0.5)
				v := verdict(m, pv, cv)
				if v == "worse" {
					regressed = true
				}
				fmt.Fprintf(w, "  %-36s %12.4g %12.4g %7.3f %6s %10.4g  %s\n",
					m.Name, pm, cm, cm/pm, wins(m, pv, cv), quantile(pv, 0.75)-quantile(pv, 0.25), v)
			}
		}
	}
	return regressed
}

// verdict places the change's median against the parent's: "better" or
// "worse" by more than the bound, "inside" it, or "-" without a bound.  An
// exact count is "equal" or "changed" instead.
func verdict(m metricSpec, parent, change []float64) string {
	if slices.Contains(exactCounts, m.Name) {
		for _, v := range append(slices.Clone(parent), change...) {
			if v != parent[0] {
				return "changed"
			}
		}
		return "equal"
	}
	if m.Bound == 0 {
		return "-"
	}
	parentMed, changeMed := quantile(parent, 0.5), quantile(change, 0.5)
	worse := (changeMed - parentMed) / parentMed // the relative change, positive when worse
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "inside"
}

// wins counts the pairs (run i of each side) in which the change is
// strictly better, out of the pairs both sides have.
func wins(m metricSpec, parent, change []float64) string {
	n := min(len(parent), len(change))
	won := 0
	for i := 0; i < n; i++ {
		if (m.Better == "higher" && change[i] > parent[i]) || (m.Better != "higher" && change[i] < parent[i]) {
			won++
		}
	}
	return fmt.Sprintf("%d/%d", won, n)
}

// values returns one metric of every run that measured it, in run order.
func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(rs []result) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// quantile interpolates linearly between the order statistics of vs.
func quantile(vs []float64, q float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
