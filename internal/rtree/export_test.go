package rtree

import "testing"

// JoinCheck compares the sweep joins over a tree against the nested-loop
// oracle.  internal/join imports this package, so the in-package tests cannot
// call it directly; the external test package (xlorder_join_test.go) installs
// it, and the mutation fuzz target and randomized sequences here run it after
// their mutations.
var JoinCheck func(t testing.TB, tr *Tree)
