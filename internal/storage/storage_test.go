package storage

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestCapacityForPageMatchesPaperTable1(t *testing.T) {
	// Table 1 of the paper reports M = 51, 102, 204 and 409 for page sizes of
	// 1, 2, 4 and 8 KByte.
	tests := []struct {
		pageSize int
		want     int
	}{
		{PageSize1K, 51},
		{PageSize2K, 102},
		{PageSize4K, 204},
		{PageSize8K, 409},
	}
	for _, tt := range tests {
		if got := CapacityForPage(tt.pageSize); got != tt.want {
			t.Errorf("CapacityForPage(%d) = %d, want %d", tt.pageSize, got, tt.want)
		}
	}
	if got := CapacityForPage(10); got != 0 {
		t.Errorf("CapacityForPage(10) = %d, want 0", got)
	}
}

func TestMinEntriesFor(t *testing.T) {
	tests := []struct {
		capacity int
		want     int
	}{
		{51, 20},
		{102, 40},
		{204, 81},
		{409, 163},
		{4, 2},
		{5, 2},
		{3, 1},
	}
	for _, tt := range tests {
		got := MinEntriesFor(tt.capacity)
		if got != tt.want {
			t.Errorf("MinEntriesFor(%d) = %d, want %d", tt.capacity, got, tt.want)
		}
		if tt.capacity >= 4 && (got < 2 || got > tt.capacity/2) {
			t.Errorf("MinEntriesFor(%d) = %d violates 2 <= m <= M/2", tt.capacity, got)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		pageSize := PageSizes[rng.Intn(len(PageSizes))]
		capacity := CapacityForPage(pageSize)
		n := DiskNode{Level: uint16(rng.Intn(5))}
		count := rng.Intn(capacity + 1)
		for i := 0; i < count; i++ {
			x := rng.Float64()
			y := rng.Float64()
			n.Entries = append(n.Entries, DiskEntry{
				Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.01, YU: y + rng.Float64()*0.01},
				Ref:  rng.Uint32(),
			})
		}
		buf, err := EncodeNode(n, pageSize)
		if err != nil {
			t.Fatalf("EncodeNode: %v", err)
		}
		got, err := DecodeNode(buf, pageSize)
		if err != nil {
			t.Fatalf("DecodeNode: %v", err)
		}
		if got.Level != n.Level || len(got.Entries) != len(n.Entries) {
			t.Fatalf("round trip mismatch: level %d->%d, count %d->%d",
				n.Level, got.Level, len(n.Entries), len(got.Entries))
		}
		for i := range n.Entries {
			if got.Entries[i].Ref != n.Entries[i].Ref {
				t.Fatalf("entry %d ref mismatch", i)
			}
			// float32 round trip: coordinates agree to float32 precision.
			if d := got.Entries[i].Rect.XL - n.Entries[i].Rect.XL; d > 1e-6 || d < -1e-6 {
				t.Fatalf("entry %d coordinate drift %g", i, d)
			}
		}
	}
}

func TestEncodeNodeOverflow(t *testing.T) {
	capacity := CapacityForPage(PageSize1K)
	n := DiskNode{Entries: make([]DiskEntry, capacity+1)}
	if _, err := EncodeNode(n, PageSize1K); !errors.Is(err, ErrPageOverflow) {
		t.Fatalf("expected ErrPageOverflow, got %v", err)
	}
}

func TestDecodeNodeErrors(t *testing.T) {
	if _, err := DecodeNode(make([]byte, 10), PageSize1K); !errors.Is(err, ErrPageSizeAgain) {
		t.Fatalf("expected ErrPageSizeAgain, got %v", err)
	}
	buf, err := EncodeNode(DiskNode{}, PageSize1K)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry count beyond capacity.
	buf[2] = 0xFF
	buf[3] = 0xFF
	if _, err := DecodeNode(buf, PageSize1K); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("expected ErrCorruptPage, got %v", err)
	}
}

// Property: encoding never exceeds the physical frame and decoding recovers
// the entry count for any count within capacity.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(countSeed uint16, level uint8) bool {
		capacity := CapacityForPage(PageSize2K)
		count := int(countSeed) % (capacity + 1)
		n := DiskNode{Level: uint16(level)}
		for i := 0; i < count; i++ {
			n.Entries = append(n.Entries, DiskEntry{Rect: geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}, Ref: uint32(i)})
		}
		buf, err := EncodeNode(n, PageSize2K)
		if err != nil {
			return false
		}
		got, err := DecodeNode(buf, PageSize2K)
		if err != nil {
			return false
		}
		return got.Level == uint16(level) && len(got.Entries) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
