package join

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// TestBufferedBuildJoinsIdentical: trees built through the Hilbert insertion
// buffer have a different (equally valid) shape than plain dynamic builds,
// but every join algorithm must produce the bit-identical result set over
// them — the shape is an index property, the result is a data property.
func TestBufferedBuildJoinsIdentical(t *testing.T) {
	itemsR := datagen.Generate(datagen.Config{Kind: datagen.Streets, Count: 2500, Seed: 51})
	itemsS := datagen.Generate(datagen.Config{Kind: datagen.Rivers, Count: 2500, Seed: 52})

	plainR := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	plainS := rtree.MustNew(rtree.Options{PageSize: storage.PageSize1K})
	plainR.InsertItems(itemsR)
	plainS.InsertItems(itemsS)

	bufR, err := rtree.BuildBuffered(rtree.Options{PageSize: storage.PageSize1K}, itemsR)
	if err != nil {
		t.Fatal(err)
	}
	bufS, err := rtree.BuildBuffered(rtree.Options{PageSize: storage.PageSize1K}, itemsS)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*rtree.Tree{bufR, bufS} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("buffered-built tree invalid: %v", err)
		}
	}

	for _, method := range Methods {
		t.Run(fmt.Sprint(method), func(t *testing.T) {
			want, err := Join(plainR, plainS, Options{Method: method, BufferBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Join(bufR, bufS, Options{Method: method, BufferBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != want.Count {
				t.Fatalf("buffered-built join found %d pairs, plain-built %d", got.Count, want.Count)
			}
			if gh, wh := sortedPairHash(got.Pairs), sortedPairHash(want.Pairs); gh != wh {
				t.Fatalf("result sets differ: hash %d vs %d", gh, wh)
			}
		})
	}

	// Mixed pairing: buffered R against plain S.
	want, err := Join(plainR, plainS, Options{Method: SJ4, BufferBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Join(bufR, plainS, Options{Method: SJ4, BufferBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count || sortedPairHash(res.Pairs) != sortedPairHash(want.Pairs) {
		t.Fatal("join of a buffered-built R with a plain-built S diverged")
	}
	for _, tr := range []*rtree.Tree{bufR, plainS} {
		if cat := tr.CatalogStats(); cat.DataEntries() != int64(tr.Len()) || len(cat.Levels) != tr.Height() {
			t.Fatalf("catalog %+v does not describe a tree of %d entries and height %d",
				cat, tr.Len(), tr.Height())
		}
	}
}
