package server

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// TestServedJoinRunsPolicyB: a served join over trees of different heights
// runs the paper's height policy (b), which reads each page of the taller
// tree's subtree once per data node of the shorter one, not policy (a),
// join.Options' zero value, which runs one window query per pair.  R is
// inserted through Update and Round the way the daemon builds it, to height
// 3 (60 000 rectangles on 4 KiB pages); S is bulk-loaded to height 2.  The
// served join's counters are the direct join's under policy (b), and its
// disk accesses are pinned.
func TestServedJoinRunsPolicyB(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	opts := rtree.Options{PageSize: storage.PageSize4K}
	p, err := storage.OpenPager(storage.NewMemVFS(), "r.db", storage.PageSize4K, fastPagerOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	store, err := rtree.NewTreeStore(rtree.MustNew(opts), p)
	if err != nil {
		t.Fatal(err)
	}
	sTree, err := rtree.BulkLoadSTR(opts, genItems(rng, 10000, 1_000_000, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, S: sTree, CostBudget: -1, DefaultDeadline: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Update(churnOps(rng, 60000, 0, 0.004)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Round(); err != nil {
		t.Fatal(err)
	}
	rTree := store.Tree()
	if rTree.Height() != 3 || sTree.Height() != 2 {
		t.Fatalf("heights R %d, S %d; want 3 and 2", rTree.Height(), sTree.Height())
	}

	resp, err := srv.Join(context.Background(), JoinRequest{DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	direct := func(policy join.HeightPolicy) *join.Result {
		res, err := join.Join(rTree, sTree, join.Options{Method: join.SJ4, HeightPolicy: policy, DiscardPairs: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	b, a := direct(join.PolicyBatchedWindows), direct(join.PolicyWindowPerPair)
	if resp.Count != b.Count || resp.Metrics != b.Metrics {
		t.Fatalf("served join: %d pairs, %+v; policy (b): %d pairs, %+v", resp.Count, resp.Metrics, b.Count, b.Metrics)
	}
	const wantB, wantA = 886, 13210
	if got := resp.Metrics.DiskAccesses(); got != wantB || a.Metrics.DiskAccesses() != wantA {
		t.Fatalf("disk accesses: served %d, policy (a) %d; want %d and %d", got, a.Metrics.DiskAccesses(), wantB, wantA)
	}
}
