package rtree_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// The sweep joins read each node's xl-order, which the writer builds when it
// makes a tree ready; these tests are the end-to-end half of the staleness
// net (CheckInvariants is the structural half): after any mutation of a
// ready tree and the next Snapshot, SJ3-SJ5 must still agree with the
// nested-loop baseline, which never looks at an order.

func init() { rtree.JoinCheck = joinCheck }

// probeTree is a small static partner; against most live trees it has a
// different height, which routes the join through height policy (c)'s sweep.
func probeTree(t testing.TB, pageSize int) *rtree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	items := make([]rtree.Item, 60)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = rtree.Item{Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.1, YU: y + rng.Float64()*0.1}, Data: int32(i)}
	}
	probe, err := rtree.BulkLoadSTR(rtree.Options{PageSize: pageSize}, items)
	if err != nil {
		t.Fatal(err)
	}
	return probe
}

// joinCheck joins tr with itself (which sweeps every node, on both sides) and
// with the probe tree in both orientations, under the intersection and the
// within-distance predicate, and requires SJ3, SJ4 and SJ5 to return the
// nested-loop pair set.  A tree mutated since it was ready is published
// first, as the daemon's writer does.
func joinCheck(t testing.TB, tr *rtree.Tree) {
	t.Helper()
	if !tr.Ready() {
		tr = tr.Snapshot()
	}
	probe := probeTree(t, tr.PageSize())
	for _, pred := range []join.Predicate{{}, {Kind: join.PredWithinDist, Epsilon: 0.02}} {
		for _, sides := range [][2]*rtree.Tree{{tr, tr}, {tr, probe}, {probe, tr}} {
			r, s := sides[0], sides[1]
			want, err := join.Join(r, s, join.Options{Method: join.NestedLoop, Predicate: pred})
			if err != nil {
				t.Fatal(err)
			}
			join.SortPairs(want.Pairs)
			for _, m := range []join.Method{join.SJ3, join.SJ4, join.SJ5} {
				got, err := join.Join(r, s, join.Options{
					Method: m, Predicate: pred, HeightPolicy: join.PolicySweepOrder,
					BufferBytes: 4 * tr.PageSize(),
				})
				if err != nil {
					t.Fatal(err)
				}
				join.SortPairs(got.Pairs)
				if len(got.Pairs) != len(want.Pairs) {
					t.Fatalf("%v %+v: %d pairs, nested loop %d", m, pred, len(got.Pairs), len(want.Pairs))
				}
				for i := range want.Pairs {
					if got.Pairs[i] != want.Pairs[i] {
						t.Fatalf("%v %+v: pair %d is %v, nested loop %v", m, pred, i, got.Pairs[i], want.Pairs[i])
					}
				}
			}
		}
	}
}

func randomItem(rng *rand.Rand, id int32) rtree.Item {
	x, y := rng.Float64(), rng.Float64()
	return rtree.Item{
		Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.03, YU: y + rng.Float64()*0.03},
		Data: id,
	}
}

// TestJoinAfterDeleteOnLiveTree is the failure an order without invalidation
// produces: join a dynamic tree, delete from it, publish it and join again.
// The second join must not report pairs of the deleted rectangles, and the
// tree mutated since its last Snapshot is refused.
func TestJoinAfterDeleteOnLiveTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	s := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	var items []rtree.Item
	for i := int32(0); i < 600; i++ {
		it := randomItem(rng, i)
		items = append(items, it)
		r.Insert(it.Rect, it.Data)
		s.Insert(it.Rect, it.Data)
	}
	opts := join.Options{Method: join.SJ4, BufferBytes: 32 << 10}
	s = s.Snapshot()
	before, err := join.Join(r.Snapshot(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, it := range items[round*150 : (round+1)*150] {
			if !r.Delete(it.Rect, it.Data) {
				t.Fatalf("delete of item %d failed", it.Data)
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := join.Join(r, s, opts); !errors.Is(err, join.ErrNotReady) {
			t.Fatalf("round %d: join of the mutated tree: %v, want ErrNotReady", round, err)
		}
		snap := r.Snapshot()
		got, err := join.Join(snap, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := join.Join(snap, s, join.Options{Method: join.NestedLoop})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count || got.Count >= before.Count {
			t.Fatalf("round %d: SJ4 found %d pairs, nested loop %d (before the deletes: %d)",
				round, got.Count, want.Count, before.Count)
		}
	}
	joinCheck(t, r)
}

// TestJoinAcrossSnapshotsAndStore sweeps a tree, snapshots it, mutates the
// writer's copies and commits them through a TreeStore; the snapshot must keep
// answering from its own (shared, already ordered) nodes, the writer from its
// mutated copies, and a tree reopened from the store from fresh ones.
func TestJoinAcrossSnapshotsAndStore(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	rng := rand.New(rand.NewSource(17))
	const pageSize = storage.PageSize1K
	fs := storage.NewMemVFS()
	p, err := storage.OpenPager(fs, "tree.db", pageSize, storage.PagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := rtree.MustNew(rtree.Options{PageSize: pageSize})
	buf := rtree.NewInsertBuffer(tr, 32)
	var live []rtree.Item
	next := int32(0)
	for i := 0; i < 500; i++ {
		it := randomItem(rng, next)
		next++
		tr.Insert(it.Rect, it.Data)
		live = append(live, it)
	}
	store, err := rtree.NewTreeStore(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		snap := tr.Snapshot() // every node of the live tree now has an order
		joinCheck(t, tr)
		snapWant, err := join.Join(snap, snap, join.Options{Method: join.SJ4})
		if err != nil {
			t.Fatal(err)
		}
		// A round as the daemon's writer applies it: staged deletes and
		// inserts through the buffer (leaf hint included), on COW copies.
		for i := 0; i < 40; i++ {
			j := rng.Intn(len(live))
			buf.StageDelete(live[j].Rect, live[j].Data)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			it := randomItem(rng, next)
			next++
			buf.Stage(it.Rect, it.Data)
			live = append(live, it)
		}
		buf.Flush()
		if _, err := store.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, tree := range []*rtree.Tree{tr, snap} {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		joinCheck(t, tr)
		snapGot, err := join.Join(snap, snap, join.Options{Method: join.SJ4})
		if err != nil {
			t.Fatal(err)
		}
		if snapGot.Count != snapWant.Count || snapGot.Metrics != snapWant.Metrics {
			t.Fatalf("round %d: snapshot join changed under the writer: %d pairs %+v, before %d pairs %+v",
				round, snapGot.Count, snapGot.Metrics, snapWant.Count, snapWant.Metrics)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := storage.OpenPager(fs, "tree.db", pageSize, storage.PagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	reopened, err := rtree.OpenTreeStore(p2, rtree.Options{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Tree().Len() != len(live) {
		t.Fatalf("reopened tree holds %d items, want %d", reopened.Tree().Len(), len(live))
	}
	joinCheck(t, reopened.Tree())
	if err := reopened.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
