package join

import (
	"testing"

	"repro/internal/rtree"
	"repro/internal/storage"
)

// withHelpers makes the sequential joins of the test start n helpers at
// their first leaf pair, whatever GOMAXPROCS is (n = 0: none, the inline
// join), and restores the default when the test ends.  It sets a package
// variable, so a test calling it must not run in parallel with others.
func withHelpers(tb testing.TB, n int) {
	tb.Helper()
	old := helperOverride
	helperOverride = n
	tb.Cleanup(func() { helperOverride = old })
}

// readyLeaf returns a leaf holding the entries in their order, with the
// xl-order a writer builds before it publishes: the root of a one-leaf tree
// whose page holds them all, made ready by a Snapshot.
func readyLeaf(entries []rtree.Entry) *rtree.Node {
	tr := rtree.MustNew(rtree.Options{PageSize: storage.EntrySize * max(len(entries), 4)})
	for _, e := range entries {
		tr.Insert(e.Rect, e.Data)
	}
	return tr.Snapshot().Root()
}
