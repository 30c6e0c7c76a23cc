package join

import "sync"

// pairKey packs a pair into a uint64 whose unsigned order is the (R, S)
// order of the signed identifiers: flipping an int32's sign bit maps
// MinInt32..MaxInt32 monotonically onto 0..MaxUint32, R fills the high word
// so it dominates, and S breaks ties.
func pairKey(p Pair) uint64 {
	const signBit = 0x80000000
	return uint64(uint32(p.R)^signBit)<<32 | uint64(uint32(p.S)^signBit)
}

// sortScratch is SortPairs' working memory: one histogram per key byte and
// the buffer the passes ping-pong with.
type sortScratch struct {
	counts [8][256]int
	buf    []Pair
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// SortPairs sorts result pairs by (R, S): the order of a kNN reply on the
// wire, and the canonical order tests compare pair sets in.
//
// It is an LSD radix sort over pairKey, one byte per pass.  A single pass
// over the input builds all eight histograms and notices already-sorted
// input, which returns untouched; a byte position on which every key agrees
// (identifiers rarely use more than 5-6 of the 8 bytes) costs no pass.
// Pairs with equal keys are equal, so stability is unobservable.
func SortPairs(pairs []Pair) {
	n := len(pairs)
	if n < 2 {
		return
	}
	sc := sortScratchPool.Get().(*sortScratch)
	defer sortScratchPool.Put(sc)

	sc.counts = [8][256]int{}
	c := &sc.counts
	sorted, prev := true, uint64(0)
	for _, p := range pairs {
		k := pairKey(p)
		if k < prev {
			sorted = false
		}
		prev = k
		c[0][uint8(k)]++
		c[1][uint8(k>>8)]++
		c[2][uint8(k>>16)]++
		c[3][uint8(k>>24)]++
		c[4][uint8(k>>32)]++
		c[5][uint8(k>>40)]++
		c[6][uint8(k>>48)]++
		c[7][uint8(k>>56)]++
	}
	if sorted {
		return
	}

	if cap(sc.buf) < n {
		sc.buf = make([]Pair, n)
	}
	src, dst := pairs, sc.buf[:n]
	inPlace := true
	first := pairKey(pairs[0])
	for b := range c {
		shift := uint(8 * b)
		next := &c[b]
		if next[uint8(first>>shift)] == n {
			continue
		}
		// Turn the histogram into each bucket's first output index.
		off := 0
		for d, cnt := range next {
			next[d] = off
			off += cnt
		}
		for _, p := range src {
			d := uint8(pairKey(p) >> shift)
			dst[next[d]] = p
			next[d]++
		}
		src, dst = dst, src
		inPlace = !inPlace
	}
	if !inPlace {
		copy(pairs, src)
	}
}
