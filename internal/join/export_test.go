package join

import "testing"

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
