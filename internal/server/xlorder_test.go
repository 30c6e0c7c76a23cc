package server

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/rtree"
)

// TestServerJoinsAcrossFlipsBuildOrders runs readers back to back while the
// writer commits rounds.  Readers of one epoch race to build the xl-orders of
// the nodes that epoch shares (atomically published, identical values); the
// writer meanwhile mutates copy-on-write copies that carry no order.  Every
// reply must be the brute-force answer for the epoch it names, and two
// replies from one epoch must report the same counters — the sorting charge
// does not depend on which reader built an order.  Run under -race in CI.
func TestServerJoinsAcrossFlipsBuildOrders(t *testing.T) {
	f := newFixture(t, Config{DefaultDeadline: -1})
	const readers, rounds = 4, 6

	models := map[uint64][]rtree.Item{f.srv.CurrentEpoch(): f.rItems}
	type reply struct {
		epoch   uint64
		pairs   []join.Pair
		metrics metrics.Snapshot
	}
	var mu sync.Mutex
	var replies []reply
	seen := map[uint64]int{} // replies per epoch
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := f.srv.Join(context.Background(), JoinRequest{})
				if err != nil {
					t.Error(err)
					return
				}
				rep := reply{epoch: resp.Epoch, pairs: resp.Pairs, metrics: resp.Metrics}
				mu.Lock()
				replies = append(replies, rep)
				seen[rep.epoch]++
				mu.Unlock()
			}
		}()
	}
	// Each round first waits for a reply from the epoch it retires, so that
	// readers starved by a busy machine cannot miss every flip.
	awaitReply := func(epoch uint64) {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			mu.Lock()
			n := seen[epoch]
			mu.Unlock()
			if n > 0 {
				return
			}
		}
	}

	rng := rand.New(rand.NewSource(71))
	live := append([]rtree.Item{}, f.rItems...)
	for round := 0; round < rounds; round++ {
		awaitReply(f.srv.CurrentEpoch())
		var ops []Op
		for _, it := range live[:30] {
			ops = append(ops, Op{Rect: it.Rect, Data: it.Data, Delete: true})
		}
		live = live[30:]
		fresh := genItems(rng, 30, int32(700_000+round*1000), 0.02)
		for _, it := range fresh {
			ops = append(ops, Op{Rect: it.Rect, Data: it.Data})
		}
		live = append(live, fresh...)
		if err := f.srv.Update(ops); err != nil {
			t.Fatal(err)
		}
		st, err := f.srv.Round()
		if err != nil {
			t.Fatal(err)
		}
		models[st.Epoch] = append([]rtree.Item{}, live...)
	}
	close(stop)
	wg.Wait()
	resp, err := f.srv.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	replies = append(replies, reply{epoch: resp.Epoch, pairs: resp.Pairs, metrics: resp.Metrics})

	want := map[uint64]map[join.Pair]bool{}
	counters := map[uint64]metrics.Snapshot{}
	for _, rep := range replies {
		model, ok := models[rep.epoch]
		if !ok {
			t.Fatalf("reply names epoch %d, which no round published", rep.epoch)
		}
		if want[rep.epoch] == nil {
			want[rep.epoch] = brutePairs(model, f.sItems)
		}
		samePairs(t, pairSet(rep.pairs), want[rep.epoch], "join during churn")
		if prev, ok := counters[rep.epoch]; ok && prev != rep.metrics {
			t.Fatalf("epoch %d: two joins disagree on their counters:\n%+v\n%+v", rep.epoch, prev, rep.metrics)
		}
		counters[rep.epoch] = rep.metrics
	}
	if len(want) < 2 {
		t.Fatalf("readers only ever saw %d epoch(s); the flips were not exercised", len(want))
	}
}
