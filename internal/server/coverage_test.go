package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

// TestCoverageFollowsTheEpochFlip: after a Round, Coverage and GET /stats
// report the catalog of the tree the new epoch published — its exact
// per-level counts and mean widths — not the previous epoch's.  The first
// joins and Coverage calls on the fresh epoch run concurrently, so under
// -race they show that reading the catalog the writer walked writes
// nothing.
func TestCoverageFollowsTheEpochFlip(t *testing.T) {
	f := newFixture(t, Config{})
	before := f.srv.Coverage()

	// Churn: delete 100 items, insert 150 wider ones.
	rng := rand.New(rand.NewSource(63))
	var ops []Op
	for _, it := range f.rItems[:100] {
		ops = append(ops, Op{Rect: it.Rect, Data: it.Data, Delete: true})
	}
	for _, it := range genItems(rng, 150, 500_000, 0.05) {
		ops = append(ops, Op{Rect: it.Rect, Data: it.Data})
	}
	if err := f.srv.Update(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Round(); err != nil {
		t.Fatal(err)
	}

	covs := make([]Coverage, 8)
	var wg sync.WaitGroup
	for g := range covs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if _, err := f.srv.Join(context.Background(), JoinRequest{DiscardPairs: true}); err != nil {
					t.Error(err)
				}
			}
			covs[g] = f.srv.Coverage()
		}(g)
	}
	wg.Wait()

	// The writer has not moved since the round, so its catalog is the
	// published epoch's.
	want := f.srv.cfg.Store.Tree().CatalogStats()
	if want.DataEntries() != int64(len(f.rItems)+50) {
		t.Fatalf("writer catalog holds %d entries, want %d", want.DataEntries(), len(f.rItems)+50)
	}
	if reflect.DeepEqual(want, before.RCatalog) {
		t.Fatal("the round did not change R's catalog — test premise broken")
	}
	for g, cov := range covs {
		if cov.Epoch != f.srv.CurrentEpoch() || cov.Epoch == before.Epoch {
			t.Fatalf("coverage %d read epoch %d, current %d, before %d", g, cov.Epoch, f.srv.CurrentEpoch(), before.Epoch)
		}
		if !reflect.DeepEqual(cov.RCatalog, want) {
			t.Fatalf("coverage %d R catalog %+v, want the new epoch's %+v", g, cov.RCatalog, want)
		}
		if !reflect.DeepEqual(cov.SCatalog, before.SCatalog) {
			t.Fatalf("coverage %d S catalog %+v, want the static tree's %+v", g, cov.SCatalog, before.SCatalog)
		}
	}

	w := doHTTP(t, NewHandler(f.srv, HandlerConfig{}), "GET", "/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
	var stats StatsWire
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats.Coverage.RCatalog, want) {
		t.Fatalf("GET /stats R catalog %+v, want the new epoch's %+v", stats.Coverage.RCatalog, want)
	}
}
