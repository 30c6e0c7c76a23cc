package zorder

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestParseKeyRange(t *testing.T) {
	good := map[string]KeyRange{
		"0:100":          {Lo: 0, Hi: 100},
		"100:4294967296": {Lo: 100, Hi: KeySpace},
		" 7 : 9 ":        {Lo: 7, Hi: 9},
	}
	for s, want := range good {
		got, err := ParseKeyRange(s)
		if err != nil {
			t.Errorf("ParseKeyRange(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseKeyRange(%q) = %v, want %v", s, got, want)
		}
		if rt, err := ParseKeyRange(got.String()); err != nil || rt != got {
			t.Errorf("round trip of %v failed: %v, %v", got, rt, err)
		}
	}
	for _, s := range []string{"", "100", "5:5", "9:5", "a:b", "0:4294967297", "-1:5"} {
		if r, err := ParseKeyRange(s); err == nil {
			t.Errorf("ParseKeyRange(%q) = %v, want error", s, r)
		}
	}
}

func TestUniformKeyRangesTileKeySpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		ranges := UniformKeyRanges(n)
		if len(ranges) != n {
			t.Fatalf("UniformKeyRanges(%d) returned %d ranges", n, len(ranges))
		}
		if !TilesKeySpace(ranges) {
			t.Errorf("UniformKeyRanges(%d) does not tile the key space: %v", n, ranges)
		}
	}
	if !TilesKeySpace([]KeyRange{{Lo: 100, Hi: KeySpace}, {Lo: 0, Hi: 100}}) {
		t.Error("TilesKeySpace must accept unsorted tilings")
	}
	for _, bad := range [][]KeyRange{
		nil,
		{{Lo: 0, Hi: KeySpace - 1}}, // short
		{{Lo: 0, Hi: 10}, {Lo: 11, Hi: KeySpace}},            // gap
		{{Lo: 0, Hi: 10}, {Lo: 9, Hi: KeySpace}},             // overlap
		{{Lo: 0, Hi: 0}, {Lo: 0, Hi: KeySpace}},              // empty member
		{{Lo: 0, Hi: KeySpace}, {Lo: 0, Hi: KeySpace}},       // duplicate
		{{Lo: 1, Hi: KeySpace}, {Lo: KeySpace, Hi: 1 << 40}}, // off the end
	} {
		if TilesKeySpace(bad) {
			t.Errorf("TilesKeySpace(%v) = true, want false", bad)
		}
	}
}

func TestKeyRangePredicates(t *testing.T) {
	r := KeyRange{Lo: 10, Hi: 20}
	for key, want := range map[uint64]bool{9: false, 10: true, 19: true, 20: false} {
		if r.Contains(key) != want {
			t.Errorf("Contains(%d) = %v, want %v", key, !want, want)
		}
	}
	cases := []struct {
		a, b KeyRange
		want bool
	}{
		{KeyRange{0, 10}, KeyRange{10, 20}, false},
		{KeyRange{0, 11}, KeyRange{10, 20}, true},
		{KeyRange{12, 15}, KeyRange{10, 20}, true},
		{KeyRange{5, 5}, KeyRange{0, 20}, false}, // empty never overlaps
	}
	for _, c := range cases {
		if c.a.Overlaps(c.b) != c.want || c.b.Overlaps(c.a) != c.want {
			t.Errorf("Overlaps(%v, %v) != %v", c.a, c.b, c.want)
		}
	}
}

// TestBlockRangeContiguity verifies the property HilbertCover is built on:
// an aligned 2^k x 2^k cell block holds exactly the keys of one contiguous
// range of length 4^k.
func TestBlockRangeContiguity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []uint32{1, 2, 4, 8, 16} {
		for trial := 0; trial < 20; trial++ {
			qx := (rng.Uint32() % (1 << Resolution / size)) * size
			qy := (rng.Uint32() % (1 << Resolution / size)) * size
			r := blockRange(qx, qy, size)
			if r.Hi-r.Lo != uint64(size)*uint64(size) {
				t.Fatalf("block (%d,%d)x%d: range %v has wrong length", qx, qy, size, r)
			}
			seen := make(map[uint64]bool, size*size)
			for dx := uint32(0); dx < size; dx++ {
				for dy := uint32(0); dy < size; dy++ {
					k := HilbertKeyOfCell(qx+dx, qy+dy)
					if !r.Contains(k) {
						t.Fatalf("block (%d,%d)x%d: cell key %d outside range %v", qx, qy, size, k, r)
					}
					if seen[k] {
						t.Fatalf("block (%d,%d)x%d: duplicate key %d", qx, qy, size, k)
					}
					seen[k] = true
				}
			}
		}
	}
}

// TestHilbertCoverContainsAllCells cross-checks the cover against brute
// force: every grid cell a point of the query rectangle can quantise to must
// have its Hilbert key inside some cover range, at every cut-off depth.
func TestHilbertCoverContainsAllCells(t *testing.T) {
	world := geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		xl, yl := rng.Float64(), rng.Float64()
		rect := geom.Rect{
			XL: xl, YL: yl,
			XU: xl + rng.Float64()*0.002,
			YU: yl + rng.Float64()*0.002,
		}
		cxl := cellOf(rect.XL, 0, 1)
		cxu := cellOf(rect.XU, 0, 1)
		cyl := cellOf(rect.YL, 0, 1)
		cyu := cellOf(rect.YU, 0, 1)
		for _, depth := range []int{0, 4, 10, Resolution} {
			cover := HilbertCover(rect, world, depth)
			if len(cover) == 0 {
				t.Fatalf("depth %d: empty cover for %+v", depth, rect)
			}
			for i := 1; i < len(cover); i++ {
				if cover[i].Lo <= cover[i-1].Hi {
					t.Fatalf("depth %d: cover not sorted/coalesced: %v", depth, cover)
				}
			}
			for cx := cxl; cx <= cxu; cx++ {
				for cy := cyl; cy <= cyu; cy++ {
					k := HilbertKeyOfCell(cx, cy)
					found := false
					for _, r := range cover {
						if r.Contains(k) {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("depth %d: cell (%d,%d) key %d not covered by %v", depth, cx, cy, k, cover)
					}
				}
			}
		}
	}
}

// TestHilbertCoverDepthZeroIsWholeSpace pins the coarse end: with no depth
// budget the cover must be the single full-key-space range.
func TestHilbertCoverDepthZeroIsWholeSpace(t *testing.T) {
	world := geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}
	rect := geom.Rect{XL: 0.4, YL: 0.4, XU: 0.6, YU: 0.6}
	cover := HilbertCover(rect, world, 0)
	if len(cover) != 1 || cover[0] != (KeyRange{Lo: 0, Hi: KeySpace}) {
		t.Fatalf("depth-0 cover = %v, want [0:%d]", cover, KeySpace)
	}
}

// TestHilbertCoverTightensWithDepth checks that deeper covers never cover
// more keys than shallower ones.
func TestHilbertCoverTightensWithDepth(t *testing.T) {
	world := geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}
	rect := geom.Rect{XL: 0.30, YL: 0.70, XU: 0.31, YU: 0.72}
	keys := func(cover []KeyRange) uint64 {
		var n uint64
		for _, r := range cover {
			n += r.Hi - r.Lo
		}
		return n
	}
	prev := uint64(1<<63) + uint64(1<<63-1)
	for depth := 0; depth <= Resolution; depth += 2 {
		n := keys(HilbertCover(rect, world, depth))
		if n > prev {
			t.Fatalf("depth %d covers %d keys, more than the shallower %d", depth, n, prev)
		}
		prev = n
	}
}
