package main

import (
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// Inputs are generated here from the workload seed and handed to the system
// under test as plain rectangles; the seed itself never crosses that
// boundary.  Every R coordinate is float32-exact (the torture harness's
// rule): the pager stores float32 corners, so an R rectangle that is not
// representable would change across serve-churn's restart cycles and the
// oracle — which keeps the generated float64 values — would no longer
// describe what the daemon serves.

// f32 rounds v to the nearest float32-representable value.
func f32(v float64) float64 { return float64(float32(v)) }

// quantize makes every corner of every item float32-exact.  Rounding is
// monotone, so XL <= XU and YL <= YU survive it.
func quantize(items []rtree.Item) {
	for i := range items {
		r := &items[i].Rect
		r.XL, r.YL, r.XU, r.YU = f32(r.XL), f32(r.YL), f32(r.XU), f32(r.YU)
	}
}

// paperRelation generates one of the paper-style synthetic maps.
func paperRelation(kind datagen.Kind, count int, seed int64) []rtree.Item {
	items := datagen.Generate(datagen.Config{Kind: kind, Count: count, Seed: seed})
	quantize(items)
	return items
}

// uniformRect draws one rectangle with sides in (0, maxSide], uniformly
// placed so that it stays inside the unit square.
func uniformRect(rng *rand.Rand, maxSide float64) geom.Rect {
	w := maxSide * (1 - rng.Float64())
	h := maxSide * (1 - rng.Float64())
	x := rng.Float64() * (1 - maxSide)
	y := rng.Float64() * (1 - maxSide)
	return geom.Rect{XL: f32(x), YL: f32(y), XU: f32(x + w), YU: f32(y + h)}
}

// uniformRelation generates n uniformly placed rectangles with identifiers
// firstID, firstID+1, ...
func uniformRelation(rng *rand.Rand, n int, maxSide float64, firstID int32) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		items[i] = rtree.Item{Rect: uniformRect(rng, maxSide), Data: firstID + int32(i)}
	}
	return items
}

// holedRelation is uniformRelation with an empty square in the middle: no
// rectangle's lower-left corner falls inside [lo, hi) x [lo, hi).  Joined by
// kNN against a relation without the hole, a fixed share of the other side
// has no near neighbour, whatever the seed — the case the best-first
// traversal's global stop bound is sensitive to.
func holedRelation(rng *rand.Rand, n int, maxSide, lo, hi float64) []rtree.Item {
	items := make([]rtree.Item, 0, n)
	for len(items) < n {
		r := uniformRect(rng, maxSide)
		if r.XL >= lo && r.XL < hi && r.YL >= lo && r.YL < hi {
			continue
		}
		items = append(items, rtree.Item{Rect: r, Data: int32(len(items))})
	}
	return items
}

// daemonS replicates spatialjoind's synthetic static relation S from the
// flags the daemon is started with (-seed, -s-items, -s-side): the same
// generator, the same draw order.  The daemon never persists S, so its
// coordinates stay float64 on both sides.
func daemonS(seed int64, n int, side float64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = rtree.Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + side, YU: y + side},
			Data: int32(i),
		}
	}
	return items
}

// churnBatch is one writer step of serve-churn: ids to delete (with the
// rectangles they were inserted with) and fresh rectangles to insert.
type churnBatch struct {
	deletes []rtree.Item
	inserts []rtree.Item
}

// churnSchedule derives the writer's whole schedule from the seed before the
// window opens: each batch deletes `per` live rectangles chosen at random and
// inserts `per` new ones under fresh identifiers, so R's size is constant
// and no identifier is ever reused.
func churnSchedule(rng *rand.Rand, initial []rtree.Item, batches, per int, maxSide float64) []churnBatch {
	live := append([]rtree.Item(nil), initial...)
	next := int32(len(initial))
	out := make([]churnBatch, batches)
	for b := range out {
		cb := churnBatch{deletes: make([]rtree.Item, per), inserts: make([]rtree.Item, per)}
		for i := 0; i < per; i++ {
			k := rng.Intn(len(live))
			cb.deletes[i] = live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < per; i++ {
			cb.inserts[i] = rtree.Item{Rect: uniformRect(rng, maxSide), Data: next}
			next++
		}
		live = append(live, cb.inserts...)
		out[b] = cb
	}
	return out
}
