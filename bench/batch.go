package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/rtree"
)

// The batch workload is the paper's: two large relations bulk-loaded into
// R*-trees and joined in-process through the library, the path the analyst
// takes.  storage, server and router do no work here, so a change to the
// wire or the pager must leave this workload's numbers alone.

const (
	batchPageSize    = 4096
	batchBufferBytes = 128 << 10
	withinEps        = 0.0025
	knnK             = 4
)

// batchMix is the closed loop's op cycle: weights join 6, count 3,
// join_par 3, within 2, knn 2.
var batchMix = []mixEntry{{opJoin, 6}, {opCount, 3}, {opJoinPar, 3}, {opWithin, 2}, {opKNN, 2}}

type batchInputs struct {
	r, s   []rtree.Item // Streets x Rivers, the paper's pair
	kr, ks []rtree.Item // the smaller pair the kNN op runs on
	want   [numOps]answer
}

// batchTrees is the system under test once set up.
type batchTrees struct {
	r, s, kr, ks *rtree.Tree
}

func genBatch(seed int64, scale float64) *batchInputs {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(120000, scale)
	kn := scaled(10000, scale)
	return &batchInputs{
		r:  paperRelation(datagen.Streets, n, rng.Int63()),
		s:  paperRelation(datagen.Rivers, n, rng.Int63()),
		kr: uniformRelation(rng, kn, 0.002, 0),
		ks: holedRelation(rng, kn, 0.002, 0.45, 0.55),
	}
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 8 {
		return v
	}
	return 8
}

func (in *batchInputs) buildOracle() {
	g := newGrid(in.s)
	in.want[opJoin] = g.joinAnswer(in.r, predicate{})
	in.want[opCount] = in.want[opJoin]
	in.want[opJoinPar] = in.want[opJoin]
	in.want[opWithin] = g.joinAnswer(in.r, predicate{eps: withinEps})
	in.want[opKNN] = newGrid(in.ks).joinAnswer(in.kr, predicate{k: knnK})
}

func buildBatchTrees(in *batchInputs) (*batchTrees, error) {
	opts := rtree.Options{PageSize: batchPageSize}
	var t batchTrees
	var err error
	for _, b := range []struct {
		dst   **rtree.Tree
		items []rtree.Item
	}{{&t.r, in.r}, {&t.s, in.s}, {&t.kr, in.kr}, {&t.ks, in.ks}} {
		if *b.dst, err = rtree.BulkLoadSTR(opts, b.items); err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
	}
	return &t, nil
}

func batchOptions() join.Options {
	return join.Options{Method: join.SJ4, BufferBytes: batchBufferBytes, UsePathBuffer: true}
}

// batchOp runs one library call and returns its result, its latency and,
// for the full join, the time to the first pair.
func batchOp(t *batchTrees, op opKind) (res *join.Result, lat, first time.Duration, err error) {
	opts := batchOptions()
	start := time.Now()
	switch op {
	case opJoin:
		seen := false
		opts.OnPair = func(join.Pair) {
			if !seen {
				seen = true
				first = time.Since(start)
			}
		}
		res, err = join.Join(t.r, t.s, opts)
	case opCount:
		opts.DiscardPairs = true
		res, err = join.Join(t.r, t.s, opts)
	case opJoinPar:
		res, err = join.ParallelJoin(t.r, t.s, join.ParallelOptions{
			Options: opts, Workers: runtime.GOMAXPROCS(0), Strategy: join.PartitionStealing,
		})
	case opWithin:
		opts.Predicate = join.WithinDistance(withinEps)
		res, err = join.Join(t.r, t.s, opts)
	case opKNN:
		opts.Predicate = join.NearestNeighbors(knnK)
		res, err = join.Join(t.kr, t.ks, opts)
	default:
		err = fmt.Errorf("batch has no op %v", op)
	}
	return res, time.Since(start), first, err
}

// checkResult compares a library result with the oracle's answer.
func checkResult(res *join.Result, want answer, pairs bool) error {
	if res.Count != want.count {
		return fmt.Errorf("count %d, oracle %d", res.Count, want.count)
	}
	if !pairs {
		return nil
	}
	if got := pairsAnswer(res.Pairs); got != want {
		return fmt.Errorf("pair set (%d, %#x), oracle (%d, %#x)", got.count, got.hash, want.count, want.hash)
	}
	return nil
}

// pairsAnswer folds a library result's pairs into the oracle's form.
func pairsAnswer(pairs []join.Pair) answer {
	var a answer
	for _, p := range pairs {
		a.count++
		a.hash += pairHash(p.R, p.S)
	}
	return a
}

// setupBatch builds the four trees and runs each op once (verified), which
// is what an analyst pays before the first timed join.
func setupBatch(in *batchInputs) (*batchTrees, error) {
	t, err := buildBatchTrees(in)
	if err != nil {
		return nil, err
	}
	for _, m := range batchMix {
		res, _, _, err := batchOp(t, m.op)
		if err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", m.op, err)
		}
		if err := checkResult(res, in.want[m.op], m.op != opCount); err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", m.op, err)
		}
	}
	return t, nil
}

// opCycle expands a weighted mix into one cycle and spreads it with a seeded
// shuffle, so that no op type always follows the same neighbour.
func opCycle(rng *rand.Rand, mix []mixEntry) []opKind {
	var cycle []opKind
	for _, m := range mix {
		for i := 0; i < m.weight; i++ {
			cycle = append(cycle, m.op)
		}
	}
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

func runBatch(cfg config, l *ledger) error {
	if cfg.trace {
		l.tr = newTracer()
	}
	in := genBatch(cfg.seed, cfg.scale)
	t0 := time.Now()
	in.buildOracle()
	l.set("bench.oracle_s", time.Since(t0).Seconds(), "s")

	var trees *batchTrees
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		t, took, err := timedSetupOf(l, func() (*batchTrees, error) { return setupBatch(in) })
		if err != nil {
			return err
		}
		setups = append(setups, took)
		trees = t
	}
	l.set("setup_s", median(setups), "s")

	cycle := opCycle(rand.New(rand.NewSource(cfg.seed^0x5eed)), batchMix)
	runtime.GC() // the discarded set-ups' garbage is not the window's to collect
	deadline := time.Now().Add(cfg.window)
	for i := 0; time.Now().Before(deadline); i++ {
		op := cycle[i%len(cycle)]
		start := time.Now()
		res, lat, first, err := batchOp(trees, op)
		if err == nil {
			err = checkResult(res, in.want[op], op != opCount)
		}
		checked := time.Now()
		l.speed.sample()
		if err != nil {
			l.fail(op, "%v", err)
			continue
		}
		l.okRequest(i, l.tracedCycle(i, len(cycle)), op, start, lat, first, checked)
	}
	if cfg.trace {
		return traceBatch(cfg, l, in, trees)
	}
	return nil
}
