package join

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/storage"
)

// TestParallelJoinIsJoin pins the ledger's join_par op to Join: the same
// pairs in the same order, the same count and the same metrics for every
// predicate, whatever Workers and Strategy say, and Join's errors.
func TestParallelJoinIsJoin(t *testing.T) {
	r, s, _, _ := buildPair(t, 3000, 3000, storage.PageSize1K)
	for _, pred := range []Predicate{{}, WithinDistance(0.002), NearestNeighbors(3)} {
		opts := Options{Method: SJ4, BufferBytes: 128 << 10, UsePathBuffer: true, Predicate: pred}
		want, err := Join(r, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParallelJoin(r, s, ParallelOptions{Options: opts, Workers: 2, Strategy: PartitionStealing})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count == 0 || got.Count != want.Count || !reflect.DeepEqual(got.Pairs, want.Pairs) {
			t.Fatalf("%v: %d pairs (count %d), Join %d (count %d), or a different order",
				pred, len(got.Pairs), got.Count, len(want.Pairs), want.Count)
		}
		if got.Metrics != want.Metrics {
			t.Fatalf("%v: metrics\n%+v\nJoin\n%+v", pred, got.Metrics, want.Metrics)
		}
		if got.StolenTasks != 0 || got.TimeSkew(costmodel.Default(), r.PageSize()) != 0 {
			t.Fatalf("%v: stolen %d, time skew %v; both must read 0",
				pred, got.StolenTasks, got.TimeSkew(costmodel.Default(), r.PageSize()))
		}
	}
	if _, err := ParallelJoin(nil, s, ParallelOptions{Workers: 2}); !errors.Is(err, ErrNilTree) {
		t.Fatalf("nil tree: %v, want ErrNilTree", err)
	}
}
