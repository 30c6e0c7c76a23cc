package main

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/rtree"
)

// The oracle answers every join the benchmark issues without touching
// internal/join, internal/sweep or internal/geom's predicates: a uniform-grid
// hash join for the intersection and within-distance predicates, a brute
// force scan for kNN.  It uses rtree.Item only as the carrier the inputs
// arrive in.  An answer is compared as (pair count, order-independent hash of
// the pair set), so a reply is checked without sorting it and a churned
// relation's answer can be maintained one rectangle at a time.

// answer identifies a pair set: its size and the wrapping sum of its pairs'
// hashes.  Addition commutes, so the hash does not depend on pair order, and
// a rectangle's pairs can be added to or removed from a set incrementally.
type answer struct {
	count int
	hash  uint64
}

func (a *answer) add(b answer) { a.count += b.count; a.hash += b.hash }
func (a *answer) sub(b answer) { a.count -= b.count; a.hash -= b.hash }

// pairHash mixes one (R id, S id) pair (splitmix64 finaliser).
func pairHash(r, s int32) uint64 {
	z := uint64(uint32(r))<<32 | uint64(uint32(s))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// distSquared is the squared minimum Euclidean distance between two closed
// rectangles (0 when they touch or overlap), evaluated as dx*dx + dy*dy like
// the system under test so that equal inputs give equal floats.
func distSquared(a, b rtree.Item) float64 {
	var dx, dy float64
	switch {
	case b.Rect.XU < a.Rect.XL:
		dx = a.Rect.XL - b.Rect.XU
	case a.Rect.XU < b.Rect.XL:
		dx = b.Rect.XL - a.Rect.XU
	}
	switch {
	case b.Rect.YU < a.Rect.YL:
		dy = a.Rect.YL - b.Rect.YU
	case a.Rect.YU < b.Rect.YL:
		dy = b.Rect.YL - a.Rect.YU
	}
	return dx*dx + dy*dy
}

// grid is a uniform bucket grid over the static side S: every S rectangle is
// listed in each cell it overlaps.
type grid struct {
	s          []rtree.Item
	n          int
	minX, minY float64
	invW, invH float64
	cells      [][]int32
}

// newGrid indexes s with about two rectangles per cell (capped so the cell
// table stays small).
func newGrid(s []rtree.Item) *grid {
	g := &grid{s: s, n: 1}
	if len(s) == 0 {
		g.cells = make([][]int32, 1)
		return g
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, it := range s {
		minX, minY = math.Min(minX, it.Rect.XL), math.Min(minY, it.Rect.YL)
		maxX, maxY = math.Max(maxX, it.Rect.XU), math.Max(maxY, it.Rect.YU)
	}
	g.n = int(math.Sqrt(float64(len(s)) / 2))
	if g.n < 1 {
		g.n = 1
	}
	if g.n > 512 {
		g.n = 512
	}
	g.minX, g.minY = minX, minY
	if w := maxX - minX; w > 0 {
		g.invW = float64(g.n) / w
	}
	if h := maxY - minY; h > 0 {
		g.invH = float64(g.n) / h
	}
	g.cells = make([][]int32, g.n*g.n)
	for i, it := range s {
		x0, x1 := g.col(it.Rect.XL), g.col(it.Rect.XU)
		y0, y1 := g.row(it.Rect.YL), g.row(it.Rect.YU)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				g.cells[y*g.n+x] = append(g.cells[y*g.n+x], int32(i))
			}
		}
	}
	return g
}

func (g *grid) clamp(c float64) int {
	if !(c > 0) {
		return 0
	}
	if c >= float64(g.n) {
		return g.n - 1
	}
	return int(c)
}

func (g *grid) col(x float64) int { return g.clamp((x - g.minX) * g.invW) }
func (g *grid) row(y float64) int { return g.clamp((y - g.minY) * g.invH) }

// probe returns r's pairs with S under the intersection predicate (eps == 0)
// or the within-distance predicate (eps > 0).  Candidates come from the cells
// r's slightly over-expanded rectangle overlaps; a pair seen in several cells
// is counted only in the cell holding the lower-left corner of the overlap
// (the reference-point rule), and the exact predicate decides.
func (g *grid) probe(r rtree.Item, eps float64) answer {
	var out answer
	pad := eps
	if eps > 0 {
		pad = eps * (1 + 1e-9)
	}
	xl, yl := r.Rect.XL-pad, r.Rect.YL-pad
	xu, yu := r.Rect.XU+pad, r.Rect.YU+pad
	eps2 := eps * eps
	x0, x1 := g.col(xl), g.col(xu)
	y0, y1 := g.row(yl), g.row(yu)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, si := range g.cells[y*g.n+x] {
				s := g.s[si]
				if s.Rect.XU < xl || xu < s.Rect.XL || s.Rect.YU < yl || yu < s.Rect.YL {
					continue
				}
				if g.col(math.Max(xl, s.Rect.XL)) != x || g.row(math.Max(yl, s.Rect.YL)) != y {
					continue
				}
				if eps > 0 {
					if distSquared(r, s) > eps2 {
						continue
					}
				} else if s.Rect.XU < r.Rect.XL || r.Rect.XU < s.Rect.XL || s.Rect.YU < r.Rect.YL || r.Rect.YU < s.Rect.YL {
					continue
				}
				out.count++
				out.hash += pairHash(r.Data, s.Data)
			}
		}
	}
	return out
}

// nearest returns r's k nearest S rectangles in (squared distance, S id)
// order by scanning all of S.
func nearest(r rtree.Item, s []rtree.Item, k int) answer {
	type cand struct {
		d2 float64
		id int32
	}
	best := make([]cand, 0, k)
	for _, it := range s {
		c := cand{distSquared(r, it), it.Data}
		if len(best) == k {
			w := best[k-1]
			if c.d2 > w.d2 || (c.d2 == w.d2 && c.id > w.id) {
				continue
			}
			best = best[:k-1]
		}
		i := len(best)
		best = append(best, c)
		for i > 0 && (best[i-1].d2 > c.d2 || (best[i-1].d2 == c.d2 && best[i-1].id > c.id)) {
			best[i] = best[i-1]
			i--
		}
		best[i] = c
	}
	var out answer
	for _, c := range best {
		out.count++
		out.hash += pairHash(r.Data, c.id)
	}
	return out
}

// predicate names the three join conditions an op can carry.
type predicate struct {
	eps float64 // > 0: within-distance
	k   int     // > 0: k nearest neighbours
}

// perItem computes one R rectangle's pairs under the predicate.
func (g *grid) perItem(r rtree.Item, p predicate) answer {
	if p.k > 0 {
		return nearest(r, g.s, p.k)
	}
	return g.probe(r, p.eps)
}

// joinAnswer is the oracle's answer for the whole of r against the grid's S.
// The per-item work is independent, so it is spread over the host's cores;
// the order-independent hash makes the chunking invisible.
func (g *grid) joinAnswer(r []rtree.Item, p predicate) answer {
	workers := runtime.GOMAXPROCS(0)
	parts := make([]answer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(r); i += workers {
				parts[w].add(g.perItem(r[i], p))
			}
		}(w)
	}
	wg.Wait()
	var out answer
	for _, a := range parts {
		out.add(a)
	}
	return out
}

// churnOracle maintains the answers of several predicates under inserts and
// deletes of R rectangles.  S is static, so each R rectangle's pairs depend
// on nothing but itself — kNN included — and a mutation adds or removes
// exactly that rectangle's contribution.
type churnOracle struct {
	g     *grid
	preds []predicate
	per   map[int32][]answer
	total []answer
}

func newChurnOracle(g *grid, preds []predicate, initial []rtree.Item) *churnOracle {
	o := &churnOracle{g: g, preds: preds, per: make(map[int32][]answer, len(initial)), total: make([]answer, len(preds))}
	// The initial load is the expensive part, so it is spread over the cores
	// like joinAnswer; the contributions are then recorded per rectangle.
	contrib := make([][]answer, len(initial))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(initial); i += workers {
				c := make([]answer, len(preds))
				for pi, p := range preds {
					c[pi] = g.perItem(initial[i], p)
				}
				contrib[i] = c
			}
		}(w)
	}
	wg.Wait()
	for i, it := range initial {
		o.per[it.Data] = contrib[i]
		for pi := range preds {
			o.total[pi].add(contrib[i][pi])
		}
	}
	return o
}

func (o *churnOracle) insert(it rtree.Item) {
	c := make([]answer, len(o.preds))
	for pi, p := range o.preds {
		c[pi] = o.g.perItem(it, p)
		o.total[pi].add(c[pi])
	}
	o.per[it.Data] = c
}

func (o *churnOracle) remove(id int32) {
	c, ok := o.per[id]
	if !ok {
		return
	}
	for pi := range o.preds {
		o.total[pi].sub(c[pi])
	}
	delete(o.per, id)
}

// snapshot copies the current answers, one per predicate.
func (o *churnOracle) snapshot() []answer { return append([]answer(nil), o.total...) }
