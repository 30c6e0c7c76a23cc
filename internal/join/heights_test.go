package join

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildUnevenPair builds two trees of different heights: a large street
// relation and a small river relation, as in section 4.4 / test (C) of the
// paper (scaled down).
func buildUnevenPair(t testing.TB, nBig, nSmall int) (*rtree.Tree, *rtree.Tree, []rtree.Item, []rtree.Item) {
	t.Helper()
	big := datagen.Generate(datagen.Config{Kind: datagen.Streets, Count: nBig, Seed: 11})
	small := datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: nSmall, Seed: 12})
	r := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	s := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	r.InsertItems(big)
	s.InsertItems(small)
	r, s = r.Snapshot(), s.Snapshot()
	if r.Height() == s.Height() {
		t.Fatalf("test setup: expected different heights, both are %d", r.Height())
	}
	return r, s, big, small
}

func TestDifferentHeightsAllPoliciesCorrect(t *testing.T) {
	r, s, big, small := buildUnevenPair(t, 9000, 300)
	want := bruteForce(big, small)
	for _, policy := range []HeightPolicy{PolicyWindowPerPair, PolicyBatchedWindows, PolicySweepOrder} {
		for _, method := range []Method{SJ1, SJ2, SJ4} {
			res, err := Join(r, s, Options{Method: method, HeightPolicy: policy, BufferBytes: 64 << 10})
			if err != nil {
				t.Fatalf("%v/%v: %v", method, policy, err)
			}
			got := asPairSet(res.Pairs)
			if len(got) != len(want) {
				t.Fatalf("%v/%v: %d pairs, want %d", method, policy, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("%v/%v: missing pair %v", method, policy, p)
				}
			}
		}
	}
}

func TestDifferentHeightsSwappedOrientation(t *testing.T) {
	// The shorter tree may equally be the first operand; results must carry
	// the correct orientation either way.
	r, s, big, small := buildUnevenPair(t, 9000, 300)
	want := bruteForce(big, small)
	res, err := Join(s, r, Options{Method: SJ4, HeightPolicy: PolicyBatchedWindows, BufferBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[Pair]bool, res.Count)
	for _, p := range res.Pairs {
		got[Pair{R: p.S, S: p.R}] = true // swap back to (big, small) orientation
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing pair %v", p)
		}
	}
}

func TestPolicyBReadsSubtreePagesAtMostOnceWithoutBuffer(t *testing.T) {
	// Policy (b)'s defining property: each page of a directory subtree is
	// read at most once per node-pair join, even with no buffer at all.
	// Globally this means policy (b) with zero buffer needs no more accesses
	// than policy (a) with zero buffer.
	r, s, _, _ := buildUnevenPair(t, 9000, 300)
	a, err := Join(r, s, Options{Method: SJ4, HeightPolicy: PolicyWindowPerPair, BufferBytes: 0, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Join(r, s, Options{Method: SJ4, HeightPolicy: PolicyBatchedWindows, BufferBytes: 0, DiscardPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Metrics.DiskAccesses() > a.Metrics.DiskAccesses() {
		t.Fatalf("policy (b) accesses (%d) exceed policy (a) accesses (%d)",
			b.Metrics.DiskAccesses(), a.Metrics.DiskAccesses())
	}
	// Paper Table 7: for a zero-size buffer the gap is large (111,140 vs
	// 24,111 accesses); require at least a 1.5x gap on synthetic data.
	if factor := float64(a.Metrics.DiskAccesses()) / float64(b.Metrics.DiskAccesses()); factor < 1.5 {
		t.Errorf("policy (b) improvement factor %.2f is implausibly small", factor)
	}
}

func TestPoliciesConvergeWithLargeBuffer(t *testing.T) {
	// Paper Table 7: with a large buffer all three policies need (almost) the
	// same number of accesses.
	r, s, _, _ := buildUnevenPair(t, 9000, 300)
	var accesses []int64
	for _, policy := range []HeightPolicy{PolicyWindowPerPair, PolicyBatchedWindows, PolicySweepOrder} {
		res, err := Join(r, s, Options{Method: SJ4, HeightPolicy: policy, BufferBytes: 2 << 20, UsePathBuffer: true, DiscardPairs: true})
		if err != nil {
			t.Fatal(err)
		}
		accesses = append(accesses, res.Metrics.DiskAccesses())
	}
	min, max := accesses[0], accesses[0]
	for _, a := range accesses {
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if float64(max) > 1.2*float64(min) {
		t.Errorf("policies diverge with a large buffer: %v", accesses)
	}
}
