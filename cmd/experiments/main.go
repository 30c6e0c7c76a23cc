// Command experiments regenerates the tables and figures of the paper's
// evaluation (sections 4 and 5) on the synthetic data sets.
//
// Usage:
//
//	experiments                      # every table and figure at the default scale
//	experiments -scale 1.0           # the paper's full cardinalities (slow)
//	experiments -table 6 -scale 0.1  # a single table
//	experiments -figure 9            # a single figure
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/experiments"
	"repro/internal/storage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scale    = fs.Float64("scale", experiments.DefaultScale, "fraction of the paper's data-set cardinalities")
		table    = fs.Int("table", 0, "run only this table (1-8)")
		figure   = fs.Int("figure", 0, "run only this figure (2, 8, 9 or 10)")
		bulk     = fs.Bool("bulk", false, "build trees with STR bulk loading instead of insertion")
		updates  = fs.Bool("updates", false, "run only the update-heavy workload experiment (extension)")
		disk     = fs.Bool("disk", false, "run only the measured-I/O disk experiments on real files (extension)")
		recovery = fs.Bool("recovery", false, "run only the crash-recovery property harness (extension)")
		server   = fs.Bool("server", false, "run only the concurrent join server torture harness (extension)")
		shards   = fs.Bool("shards", false, "run only the sharded-deployment scaling benchmark (extension)")
		preds    = fs.Bool("predicates", false, "run only the predicate filter-and-refine suite (extension)")
		pages    = fs.String("pages", "", "comma-separated page sizes in bytes (default 1024,2048,4096,8192)")
		buffers  = fs.String("buffers", "", "comma-separated LRU buffer sizes in KByte (default 0,8,32,128,512)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := repro.ExperimentConfig{Scale: *scale, BulkLoad: *bulk, UsePathBuffer: true}
	var err error
	if cfg.PageSizes, err = parseIntList(*pages); err != nil {
		return fmt.Errorf("-pages: %w", err)
	}
	if cfg.BufferSizesKB, err = parseIntList(*buffers); err != nil {
		return fmt.Errorf("-buffers: %w", err)
	}
	for _, ps := range cfg.PageSizes {
		if storage.CapacityForPage(ps) < 4 {
			return fmt.Errorf("page size %d is too small", ps)
		}
	}

	suite := repro.NewExperimentSuite(cfg)
	switch {
	case *disk:
		dir, err := os.MkdirTemp("", "repro-disk-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		experiments.PrintTableDiskIO(out, suite.TableDiskIO(storage.OSVFS{}, dir))
		fmt.Fprintln(out)
		experiments.PrintTableDiskUpdates(out, suite.TableDiskUpdates(storage.OSVFS{}, dir))
	case *recovery:
		report := experiments.RunRecoveryHarness(experiments.RecoveryConfig{})
		experiments.PrintRecoveryReport(out, report)
		if !report.Ok() {
			return fmt.Errorf("crash-recovery harness failed (%d violations)", len(report.Failures))
		}
	case *server:
		report := experiments.RunServerTorture(experiments.ServerTortureConfig{})
		experiments.PrintServerReport(out, report)
		if !report.Ok() {
			return fmt.Errorf("server torture harness failed (%d violations)", len(report.Failures))
		}
	case *shards:
		report := experiments.RunShardBench(experiments.ShardBenchConfig{Scale: *scale})
		experiments.PrintShardReport(out, report)
		if !report.Ok() {
			return fmt.Errorf("shard benchmark failed (%d violations)", len(report.Failures))
		}
	case *preds:
		report := experiments.RunPredicateBench(experiments.PredicateBenchConfig{Scale: *scale})
		experiments.PrintPredicateReport(out, report)
		if !report.Ok() {
			return fmt.Errorf("predicate suite failed (%d violations)", len(report.Failures))
		}
	case *updates:
		experiments.PrintTableUpdates(out, suite.TableUpdates())
	case *table == 0 && *figure == 0:
		suite.RunAll(out)
	case *table != 0:
		return runTable(suite, *table, out)
	default:
		return runFigure(suite, *figure, out)
	}
	return nil
}

func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func runTable(s *experiments.Suite, n int, out io.Writer) error {
	switch n {
	case 1:
		experiments.PrintTable1(out, s.Table1())
	case 2:
		experiments.PrintTable2(out, s, s.Table2())
	case 3:
		experiments.PrintTable3(out, s.Table3())
	case 4:
		experiments.PrintTable4(out, s.Table4())
	case 5:
		experiments.PrintTable5(out, s.Table5())
	case 6:
		experiments.PrintTable6(out, s, s.Table6())
	case 7:
		experiments.PrintTable7(out, s.Table7())
	case 8:
		experiments.PrintTable8(out, s.Table8())
	default:
		return fmt.Errorf("unknown table %d (the paper has tables 1-8)", n)
	}
	return nil
}

func runFigure(s *experiments.Suite, n int, out io.Writer) error {
	switch n {
	case 2:
		experiments.PrintFigure(out, s, "Figure 2: Estimated execution time of SpatialJoin1", s.Figure2())
	case 8:
		experiments.PrintFigure(out, s, "Figure 8: Estimated execution time of SpatialJoin4", s.Figure8())
	case 9:
		experiments.PrintFigure9(out, s.Figure9())
	case 10:
		experiments.PrintFigure10(out, s.Figure10())
	default:
		return fmt.Errorf("unknown figure %d (the evaluation has figures 2, 8, 9 and 10)", n)
	}
	return nil
}
