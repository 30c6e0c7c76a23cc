package join

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func cancelTestTrees(t testing.TB, n int) (*rtree.Tree, *rtree.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	makeItems := func() []rtree.Item {
		items := make([]rtree.Item, n)
		for i := range items {
			x, y := rng.Float64(), rng.Float64()
			items[i] = rtree.Item{
				Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.02, YU: y + rng.Float64()*0.02},
				Data: int32(i),
			}
		}
		return items
	}
	r := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	s := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	r.InsertItems(makeItems())
	s.InsertItems(makeItems())
	return r, s
}

// TestJoinCancelledBeforeStart: a join handed an already-cancelled context
// performs no work and returns the typed error immediately.
func TestJoinCancelledBeforeStart(t *testing.T) {
	r, s := cancelTestTrees(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Join(r, s, Options{Method: SJ4, Context: ctx})
	if res != nil {
		t.Fatal("cancelled join returned a result")
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCancelled wrapping context.Canceled, got %v", err)
	}
}

// TestJoinDeadlineExceeded: an expired deadline is distinguishable from an
// explicit cancellation through errors.Is.
func TestJoinDeadlineExceeded(t *testing.T) {
	r, s := cancelTestTrees(t, 200)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Join(r, s, Options{Method: SJ3, Context: ctx})
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCancelled wrapping DeadlineExceeded, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("deadline error must not match context.Canceled: %v", err)
	}
}

// TestJoinCancelMidRun cancels from inside the pair stream: every method must
// abandon the traversal and report the typed error instead of a partial
// result.
func TestJoinCancelMidRun(t *testing.T) {
	r, s := cancelTestTrees(t, 2000)
	for _, m := range append([]Method{NestedLoop}, Methods...) {
		ctx, cancel := context.WithCancel(context.Background())
		fired := 0
		res, err := Join(r, s, Options{
			Method:  m,
			Context: ctx,
			OnPair: func(Pair) {
				fired++
				if fired == 1 {
					cancel()
				}
			},
		})
		cancel()
		if res != nil {
			t.Fatalf("%v: cancelled join returned a result", m)
		}
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want ErrCancelled, got %v", m, err)
		}
	}
}

// TestJoinContextCompletesUnchanged: a live context that never fires must not
// change the result or the counted costs in any way.
func TestJoinContextCompletesUnchanged(t *testing.T) {
	r, s := cancelTestTrees(t, 800)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plain, err := Join(r, s, Options{Method: SJ4, BufferBytes: 8 * storage.PageSize1K})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := Join(r, s, Options{Method: SJ4, BufferBytes: 8 * storage.PageSize1K, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Count != ctxed.Count || plain.Metrics != ctxed.Metrics {
		t.Fatalf("context plumbing changed the join: count %d vs %d, metrics %+v vs %+v",
			plain.Count, ctxed.Count, plain.Metrics, ctxed.Metrics)
	}
}

// TestJoinCancelNoGoroutineLeak: the context watcher must exit with the join,
// cancelled or not.
func TestJoinCancelNoGoroutineLeak(t *testing.T) {
	r, s := cancelTestTrees(t, 300)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // half the joins abort, half complete
		}
		_, _ = Join(r, s, Options{Method: SJ4, Context: ctx})
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
