package zorder

import "testing"

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
	for r, want := range map[KeyRange]bool{{Lo: 10, Hi: 20}: false, {Lo: 5, Hi: 5}: true, {Lo: 9, Hi: 5}: true} {
		if r.Empty() != want {
			t.Errorf("%v.Empty() = %v, want %v", r, !want, want)
		}
	}
}
