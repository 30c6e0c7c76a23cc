// Package datagen produces the synthetic data sets that substitute for the
// proprietary TIGER/Line and Eurostat region files used by the paper's
// evaluation (see DESIGN.md, "Substitutions").
//
// The spatial-join algorithms only ever see minimum bounding rectangles, so
// the properties that drive their CPU and I/O behaviour are the number of
// rectangles, their size distribution, their spatial skew and the overlap
// between the two joined relations.  The generators reproduce those
// properties:
//
//   - Streets: dense clusters ("cities") of many short segments plus a
//     uniform rural background, mimicking a street map's MBR distribution.
//   - Rivers and railways: long random-walk polylines crossing the map,
//     chopped into per-segment MBRs, so consecutive rectangles are spatially
//     correlated just like digitised river courses.
//   - Regions: a jittered grid of area objects whose MBRs are much larger
//     and overlap heavily, reproducing the high join selectivity of the
//     paper's region test (E).
//
// All generators are deterministic for a given seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Cardinalities of the paper's data sets (Table 8).
const (
	PaperStreetsCount        = 131461 // CA streets (tests A, B, C: R*-tree R)
	PaperStreets2Count       = 131192 // second street map (test B)
	PaperRiversRailwaysCount = 128971 // CA rivers & railways (tests A, C, D)
	PaperLargeStreetsCount   = 598677 // large street relation (section 4.4, test C)
	PaperRegionRCount        = 67527  // European region data (test E)
	PaperRegionSCount        = 33696  // European region data (test E)
)

// Kind identifies the flavour of synthetic map a generator produces.
type Kind int

const (
	// Streets mimics an urban street map: many short segments, strongly
	// clustered around city centres.
	Streets Kind = iota
	// Rivers mimics hydrography and railway lines: fewer, longer polylines
	// crossing the map, digitised into short segments.
	Rivers
	// Regions mimics administrative regions: fewer, larger area objects that
	// tile the map with overlap between neighbouring MBRs.
	Regions
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Streets:
		return "streets"
	case Rivers:
		return "rivers&railways"
	case Regions:
		return "regions"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes one synthetic relation.
type Config struct {
	// Kind selects the map flavour.
	Kind Kind
	// Count is the number of spatial objects (MBRs) to generate.
	Count int
	// Seed makes the relation reproducible.  Two relations with different
	// seeds model different maps of the same area.
	Seed int64
	// World is the data space; the default is the unit square.
	World geom.Rect
}

func (c Config) withDefaults() Config {
	if c.World.Area() == 0 {
		c.World = geom.WorldRect()
	}
	return c
}

// Generate produces the items of the configured relation.
func Generate(cfg Config) []rtree.Item {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch cfg.Kind {
	case Rivers:
		return generateRivers(cfg, rng)
	case Regions:
		return generateRegions(cfg, rng)
	default:
		return generateStreets(cfg, rng)
	}
}

// clusterCount returns the number of city clusters for a street map of the
// given size; larger maps have more cities.
func clusterCount(count int) int {
	c := int(math.Sqrt(float64(count)) / 4)
	if c < 3 {
		c = 3
	}
	if c > 120 {
		c = 120
	}
	return c
}

// generateStreets produces short, clustered line-segment MBRs.
func generateStreets(cfg Config, rng *rand.Rand) []rtree.Item {
	w := cfg.World
	type cluster struct {
		cx, cy, spread float64
	}
	clusters := make([]cluster, clusterCount(cfg.Count))
	for i := range clusters {
		clusters[i] = cluster{
			cx:     w.XL + rng.Float64()*w.Width(),
			cy:     w.YL + rng.Float64()*w.Height(),
			spread: (0.01 + rng.Float64()*0.04) * w.Width(),
		}
	}
	items := make([]rtree.Item, cfg.Count)
	for i := range items {
		var x, y float64
		if rng.Float64() < 0.8 {
			// Urban segment: Gaussian around a random city.
			c := clusters[rng.Intn(len(clusters))]
			x = c.cx + rng.NormFloat64()*c.spread
			y = c.cy + rng.NormFloat64()*c.spread
		} else {
			// Rural segment: uniform background.
			x = w.XL + rng.Float64()*w.Width()
			y = w.YL + rng.Float64()*w.Height()
		}
		x = clamp(x, w.XL, w.XU)
		y = clamp(y, w.YL, w.YU)
		// Street segments are short and axis-biased (grid-like city layouts).
		length := (0.0005 + rng.Float64()*0.002) * w.Width()
		angle := rng.Float64() * 2 * math.Pi
		if rng.Float64() < 0.6 {
			// Snap to an axis to mimic grid streets.
			angle = math.Round(angle/(math.Pi/2)) * (math.Pi / 2)
		}
		dx := math.Cos(angle) * length
		dy := math.Sin(angle) * length
		items[i] = rtree.Item{
			Rect: clampRect(geom.NewRect(x, y, x+dx, y+dy), w),
			Data: int32(i),
		}
	}
	return items
}

// generateRivers produces per-segment MBRs of long random-walk polylines.
func generateRivers(cfg Config, rng *rand.Rand) []rtree.Item {
	w := cfg.World
	items := make([]rtree.Item, 0, cfg.Count)
	id := int32(0)
	// Each polyline contributes a few hundred segments; rivers meander with a
	// persistent heading, railways are straighter.
	for len(items) < cfg.Count {
		segments := 150 + rng.Intn(400)
		x := w.XL + rng.Float64()*w.Width()
		y := w.YL + rng.Float64()*w.Height()
		heading := rng.Float64() * 2 * math.Pi
		straightness := 0.1 + rng.Float64()*0.4
		step := (0.001 + rng.Float64()*0.003) * w.Width()
		for s := 0; s < segments && len(items) < cfg.Count; s++ {
			heading += rng.NormFloat64() * straightness
			nx := x + math.Cos(heading)*step
			ny := y + math.Sin(heading)*step
			nx = clamp(nx, w.XL, w.XU)
			ny = clamp(ny, w.YL, w.YU)
			items = append(items, rtree.Item{
				Rect: clampRect(geom.NewRect(x, y, nx, ny), w),
				Data: id,
			})
			id++
			x, y = nx, ny
		}
	}
	return items
}

// generateRegions produces larger, mutually overlapping area MBRs arranged as
// a jittered tiling of the world.
func generateRegions(cfg Config, rng *rand.Rand) []rtree.Item {
	w := cfg.World
	// Arrange the regions on a sqrt(n) x sqrt(n) grid with jitter and size
	// variation so neighbouring MBRs overlap, as real administrative regions'
	// bounding boxes do.
	side := int(math.Ceil(math.Sqrt(float64(cfg.Count))))
	cellW := w.Width() / float64(side)
	cellH := w.Height() / float64(side)
	items := make([]rtree.Item, 0, cfg.Count)
	for i := 0; len(items) < cfg.Count; i++ {
		row := (i / side) % side
		col := i % side
		cx := w.XL + (float64(col)+0.5)*cellW + rng.NormFloat64()*cellW*0.2
		cy := w.YL + (float64(row)+0.5)*cellH + rng.NormFloat64()*cellH*0.2
		halfW := cellW * (0.6 + rng.Float64()*0.9)
		halfH := cellH * (0.6 + rng.Float64()*0.9)
		items = append(items, rtree.Item{
			Rect: clampRect(geom.NewRect(cx-halfW, cy-halfH, cx+halfW, cy+halfH), w),
			Data: int32(len(items)),
		})
	}
	return items
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampRect(r, w geom.Rect) geom.Rect {
	return geom.Rect{
		XL: clamp(r.XL, w.XL, w.XU),
		YL: clamp(r.YL, w.YL, w.YU),
		XU: clamp(r.XU, w.XL, w.XU),
		YU: clamp(r.YU, w.YL, w.YU),
	}
}

// Dataset pairs a name with generated items, mirroring the paper's named
// relations.
type Dataset struct {
	Name  string
	Kind  Kind
	Items []rtree.Item
}
