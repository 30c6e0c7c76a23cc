package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rtree"
)

// The smoke test runs all four workloads at a fiftieth of their size with
// sub-second windows: it checks the plumbing (every metric named in
// BENCHMARK.json is emitted with its unit, every reply verifies, no process
// or file is left behind), not the numbers.

var testBins string // daemons built once for the whole test binary

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := 1
	if _, err := daemonBinaries(config{workload: "build"}, dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		testBins = filepath.Join(dir, "bin")
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	window := 300 * time.Millisecond
	if workload == "serve-churn" {
		// Long enough for the paced schedule to reach every op of the mix.
		window = 1200 * time.Millisecond
	}
	return config{
		workload: workload, seed: 7, window: window, trace: trace,
		outDir: dir, binDir: testBins, tmpDir: dir, scale: 0.02, setups: 1,
	}
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runSmoke(t *testing.T, cfg config) resultLine {
	t.Helper()
	var run func(config, *ledger) error
	for _, w := range workloads {
		if w.name == cfg.workload {
			run = w.run
		}
	}
	var stdout, stderr bytes.Buffer
	if !runOne(cfg, run, &stdout, &stderr) {
		t.Fatalf("%s (trace=%v) did not complete: %s", cfg.workload, cfg.trace, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace=%v): correct=%v attempted=%d failed=%d\n%s", cfg.workload, cfg.trace, res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	return res
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesProgram pins BENCHMARK.json to the program: the same
// workloads, and the same metric names and units in the same two sets.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, program %q", i, m.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, listed []manifestMetric, have []struct{ name, unit string }) {
		if len(listed) != len(have) {
			t.Errorf("%s: manifest lists %d metrics, the program %d", kind, len(listed), len(have))
		}
		units := map[string]string{}
		for _, h := range have {
			units[h.name] = h.unit
		}
		for _, lm := range listed {
			if u, ok := units[lm.Name]; !ok {
				t.Errorf("%s: manifest metric %s is not emitted", kind, lm.Name)
			} else if u != lm.Unit {
				t.Errorf("%s: %s has unit %q in the manifest, %q in the program", kind, lm.Name, lm.Unit, u)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

// TestSmoke runs every workload untraced and traced and checks that each
// emits exactly its manifest metrics, with units, and that two traced runs
// of one seed agree exactly on the counted costs.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	exact := []string{"join.comparisons", "join.disk_reads", "join.pairs", "join.knn_dist_computations", "storage.syncs_per_round"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runSmoke(t, smokeConfig(t, w.name, false))
			expectMetrics(t, res, m.EndToEnd)
			for _, em := range m.EndToEnd {
				if res.Metrics[em.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", em.Name, res.Metrics[em.Name].Value)
				}
			}
			traced := smokeConfig(t, w.name, true)
			first := runSmoke(t, traced)
			expectMetrics(t, first, m.PerLayer)
			if _, err := os.Stat(filepath.Join(traced.outDir, w.name+".trace.jsonl")); err != nil {
				t.Errorf("span file: %v", err)
			}
			second := runSmoke(t, smokeConfig(t, w.name, true))
			for _, name := range exact {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v and %v", name, a, b)
				}
			}
		})
	}
}

func expectMetrics(t *testing.T, res resultLine, want []manifestMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result carries %d metrics, the manifest lists %d", len(res.Metrics), len(want))
	}
	for _, wm := range want {
		got, ok := res.Metrics[wm.Name]
		if !ok {
			t.Errorf("metric %s missing from the result", wm.Name)
		} else if got.Unit != wm.Unit {
			t.Errorf("metric %s has unit %q, manifest says %q", wm.Name, got.Unit, wm.Unit)
		}
	}
}

func hashItems(sets ...[]rtree.Item) uint64 {
	h := fnv.New64a()
	for _, items := range sets {
		for _, it := range items {
			fmt.Fprintf(h, "%v|%d;", it.Rect, it.Data)
		}
	}
	return h.Sum64()
}

// TestSameSeedSameInputs checks that inputs are a function of the seed alone
// and that different seeds give different inputs.
func TestSameSeedSameInputs(t *testing.T) {
	b1, b2, b3 := genBatch(5, 0.02), genBatch(5, 0.02), genBatch(6, 0.02)
	if hashItems(b1.r, b1.s, b1.kr, b1.ks) != hashItems(b2.r, b2.s, b2.kr, b2.ks) {
		t.Error("batch inputs differ between two generations from one seed")
	}
	if hashItems(b1.r, b1.s) == hashItems(b3.r, b3.s) {
		t.Error("batch inputs do not depend on the seed")
	}
	for _, spec := range []serveSpec{serveReadSpec, serveChurnSpec, shardedSpec} {
		cfg := config{seed: 5, scale: 0.02, window: time.Second}
		s1, s2 := genServe(spec, cfg), genServe(spec, cfg)
		h := func(in *serveInputs) uint64 {
			sets := [][]rtree.Item{in.r, in.s}
			for _, b := range in.schedule {
				sets = append(sets, b.deletes, b.inserts)
			}
			return hashItems(sets...)
		}
		if h(s1) != h(s2) || s1.sSeed != s2.sSeed {
			t.Error("daemon workload inputs differ between two generations from one seed")
		}
		for _, it := range s1.r {
			r := it.Rect
			if f32(r.XL) != r.XL || f32(r.YL) != r.YL || f32(r.XU) != r.XU || f32(r.YU) != r.YU {
				t.Fatalf("R rectangle %v is not float32-exact", r)
			}
		}
	}
}

// TestOracleAgainstBruteForce checks the grid join against the quadratic
// definition of each predicate on a small input.
func TestOracleAgainstBruteForce(t *testing.T) {
	in := genServe(serveReadSpec, config{seed: 3, scale: 0.03, window: time.Second})
	g := newGrid(in.s)
	for _, p := range servePreds {
		var want answer
		for _, r := range in.r {
			if p.k > 0 {
				want.add(nearest(r, in.s, p.k))
				continue
			}
			for _, s := range in.s {
				if distSquared(r, s) <= p.eps*p.eps {
					want.count++
					want.hash += pairHash(r.Data, s.Data)
				}
			}
		}
		if got := g.joinAnswer(in.r, p); got != want {
			t.Errorf("predicate %+v: grid (%d, %#x), brute force (%d, %#x)", p, got.count, got.hash, want.count, want.hash)
		}
	}
}

// TestParseJoinReply covers the hand-written scanner on both reply shapes.
func TestParseJoinReply(t *testing.T) {
	daemon := []byte(`{"epoch":7,"count":2,"pairs":[[1,2],[3,-4]]}` + "\n")
	jr, err := parseJoinReply(daemon)
	if err != nil || jr.epoch != 7 || jr.count != 2 || jr.pairs.count != 2 || jr.pairs.hash != pairHash(1, 2)+pairHash(3, -4) {
		t.Errorf("daemon reply: %+v, %v", jr, err)
	}
	routed := []byte(`{"count":1,"pairs":[[5,6]],"shards":[{"Shard":"a \"b\"","Epoch":3,"Count":1,"Attempts":1,"Wall":12}]}`)
	jr, err = parseJoinReply(routed)
	if err != nil || jr.count != 1 || jr.pairs.count != 1 || !bytes.HasPrefix(jr.shards, []byte(`[{"Shard"`)) {
		t.Errorf("router reply: %+v, %v", jr, err)
	}
	round := []byte(`{"Epoch":9,"Applied":200,"Commit":{"Seq":9,"Root":3,"PagesWritten":4,"PagesClean":5,"PagesFreed":0}}`)
	if jr, err = parseJoinReply(round); err != nil || jr.epoch != 9 {
		t.Errorf("round reply: %+v, %v", jr, err)
	}
	if _, err := parseJoinReply([]byte(`{"count":`)); err == nil {
		t.Error("truncated reply parsed")
	}
}
