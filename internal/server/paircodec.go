package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/join"
)

// The pair codec.  A /join response is almost entirely integer pairs, and
// reflecting over them — encoding/json walking a [][2]int32 element by
// element — cost more than finding them.  This file is the one place that
// knows the response's bytes: a streaming encoder the shard handler writes
// with, and a scanner the router reads shard bodies with as they arrive.
// The encoder's bytes are exactly
// json.NewEncoder(w).Encode(JoinResponseWire{...})'s.  The scanner is
// canonical-only: it accepts the encoder's bytes and no others, so what it
// accepts encoding/json decodes to the same value, and the gateway can pass
// the pair bytes on as they are.

// WireChunk is how many bytes of a /join body the shard, or the gateway,
// gathers before it writes them to the connection.  A body of at most one
// chunk goes out in one piece with its Content-Length; a larger one is sent
// as it is encoded (chunked transfer), by the shard in writes of exactly
// this size but the last, whichever goroutine encodes them.  Measured on
// the ledger's sharded workload (EXPERIMENTS.md, "Stream the pair answer").
const WireChunk = 32 << 10

// Pair blocks.  The join hands its pairs to the encoder in blocks of
// blockPairs.  From the first full block on, a writer goroutine encodes and
// sends them while the traversal goes on.  The ring is ringBlocks blocks
// (64 KiB), the one being filled among them: a join that has filled them
// all waits for the writer, so a client that stops reading still holds the
// join, as when the join wrote its own chunks.
const (
	blockPairs = 2048
	ringBlocks = 4
)

// encoderPool recycles encoders with their chunk buffers and ring blocks.
var encoderPool = sync.Pool{New: func() any {
	e := &pairEncoder{
		queue:   make(chan []join.Pair, ringBlocks),
		free:    make(chan []join.Pair, ringBlocks),
		stopped: make(chan struct{}),
	}
	ring := make([]join.Pair, ringBlocks*blockPairs)
	e.fill = ring[:0:blockPairs]
	for k := blockPairs; k < len(ring); k += blockPairs {
		e.free <- ring[k : k : k+blockPairs]
	}
	return e
}}

// pairEncoder writes one /join response body while the pairs are still
// arriving: pair takes one, close appends the fields that follow them and
// writes the rest.  Pairs come first so that the fields known only at the
// end of a join can follow them, and the bytes stay encoding/json's for the
// struct.
//
// pair only appends to a block.  Full blocks go to a writer goroutine,
// started at the first of them, which encodes them.  One goroutine owns the
// ResponseWriter and the body state (buf, pairs, sent, failed) at a time:
// the writer from its start until drain or halt stops it, the handler
// before and after.  drain sends everything queued; halt drops what is
// still queued.  The handler reads sent, and so chooses between a rerun and
// an abort, only once the writer has stopped.  A reply that is sorted
// before it is sent starts no writer: the handler encodes it whole.
//
// A chunk may be written while the join runs, so a client that stops
// reading must not hold the join there: from the first chunk on, writes
// carry the join's deadline, and a failed write cancels the join.  After
// one, the writer keeps taking blocks without writing them, so the join
// never waits on a dead writer.  A first chunk due after the deadline is
// not written at all: the response stays uncommitted (failed, not sent),
// so the handler can still answer with the typed 504 (see expired).
type pairEncoder struct {
	w     http.ResponseWriter
	chunk int
	// deadline bounds every write once a chunk has gone out (zero: none);
	// cancel, if set, is called when a write fails.
	deadline time.Time
	cancel   context.CancelFunc

	// The body state, which the owner of w holds.
	buf   []byte
	pairs int
	// sent reports whether a chunk has been written, which commits the
	// response to 200 with no Content-Length; failed, that a write failed.
	sent, failed bool

	// The join's side: the block being filled, and whether the writer runs.
	fill    []join.Pair
	writing bool

	// queue carries full blocks to the writer, and a nil block stops it;
	// free brings the blocks back, and stopped says the writer is gone.
	// drop, set by halt, makes the writer discard what is still queued.
	queue   chan []join.Pair
	free    chan []join.Pair
	stopped chan struct{}
	drop    atomic.Bool
}

// newPairEncoder takes an encoder from the pool; release returns it.
func newPairEncoder(w http.ResponseWriter, chunk int) *pairEncoder {
	e := encoderPool.Get().(*pairEncoder)
	e.w, e.chunk = w, chunk
	return e
}

// release stops the writer, dropping what it still holds, and returns the
// encoder to the pool.
func (e *pairEncoder) release() {
	e.halt()
	e.reset()
	e.w, e.cancel, e.deadline = nil, nil, time.Time{}
	e.sent, e.failed = false, false
	encoderPool.Put(e)
}

// reset drops the pairs encoded so far.  It is valid only once the writer
// has stopped and before a chunk has been written.
func (e *pairEncoder) reset() {
	e.buf, e.pairs = e.buf[:0], 0
}

// pair appends one pair to the block being filled and passes the block on
// when it is full.
func (e *pairEncoder) pair(p join.Pair) {
	e.fill = append(e.fill, p)
	if len(e.fill) == blockPairs {
		e.fill = e.put(e.fill)
	}
}

// put passes a full block to the writer, which it starts at the first
// block, and returns the block to fill next.  With every block in flight it
// waits for the writer to free one.
func (e *pairEncoder) put(b []join.Pair) []join.Pair {
	if !e.writing {
		e.writing = true
		go e.write()
	}
	e.queue <- b
	return <-e.free
}

// write is the writer goroutine: it encodes the queued blocks in order
// until the nil block that stops it.
func (e *pairEncoder) write() {
	for {
		b := <-e.queue
		if b == nil {
			e.stopped <- struct{}{}
			return
		}
		if !e.drop.Load() {
			e.encode(b)
		}
		e.free <- b[:0]
	}
}

// drain stops the writer once it has sent every block queued, then encodes
// the block being filled.  The handler owns the ResponseWriter after it.
func (e *pairEncoder) drain() {
	e.stop()
	e.encode(e.fill)
	e.fill = e.fill[:0]
}

// halt stops the writer, dropping the blocks queued and the one being
// filled.  The handler owns the ResponseWriter after it.
func (e *pairEncoder) halt() {
	e.drop.Store(true)
	e.stop()
	e.drop.Store(false)
	e.fill = e.fill[:0]
}

func (e *pairEncoder) stop() {
	if e.writing {
		e.queue <- nil
		<-e.stopped
		e.writing = false
	}
}

// encode appends a block's pairs to the body and writes every whole chunk
// buffered.
func (e *pairEncoder) encode(ps []join.Pair) {
	if len(ps) == 0 || e.failed {
		return
	}
	buf := e.buf
	if e.pairs == 0 {
		buf = appendPair(append(buf, `{"pairs":[`...), ps[0].R, ps[0].S)
		e.pairs, ps = 1, ps[1:]
	}
	for _, p := range ps {
		buf = appendPair(append(buf, ','), p.R, p.S)
		if len(buf) >= e.chunk {
			e.buf = buf
			e.flush()
			buf = e.buf
		}
	}
	e.buf = buf
	e.pairs += len(ps)
	if len(buf) >= e.chunk {
		e.flush()
	}
}

// close encodes what is left of the pairs, appends the trailing fields of
// JoinResponseWire{pairs, epoch, count, retries} and the encoder's newline,
// then writes what is buffered: with its Content-Length when no chunk has
// gone out and it fits in one, else as the body's last chunks.  Like the
// struct's omitempty tags it leaves out a zero retries and an empty pairs.
func (e *pairEncoder) close(epoch uint64, count, retries int) {
	e.drain()
	if e.pairs > 0 {
		e.buf = append(e.buf, `],"epoch":`...)
	} else {
		e.buf = append(e.buf, `{"epoch":`...)
	}
	e.buf = strconv.AppendUint(e.buf, epoch, 10)
	e.buf = append(e.buf, `,"count":`...)
	e.buf = strconv.AppendInt(e.buf, int64(count), 10)
	if retries != 0 {
		e.buf = append(e.buf, `,"retries":`...)
		e.buf = strconv.AppendInt(e.buf, int64(retries), 10)
	}
	e.buf = append(e.buf, '}', '\n')
	if !e.sent && !e.failed && len(e.buf) <= e.chunk {
		WriteJSONBytes(e.w, http.StatusOK, e.buf)
		return
	}
	e.flush()
	if len(e.buf) > 0 {
		e.send(e.buf)
	}
	if e.expired() {
		WriteJoinError(e.w, errReplyExpired)
	}
}

// errReplyExpired is the error of a reply whose first chunk was due after
// the join's deadline.
var errReplyExpired = fmt.Errorf("%w: %w before the reply's first chunk", ErrDeadline, context.DeadlineExceeded)

// expired reports whether the deadline passed before the first chunk could
// be written: nothing is committed, and the reply is the typed 504.
func (e *pairEncoder) expired() bool { return e.failed && !e.sent }

// flush writes every whole chunk buffered and keeps the remainder.
func (e *pairEncoder) flush() {
	n := 0
	for ; len(e.buf)-n >= e.chunk; n += e.chunk {
		e.send(e.buf[n : n+e.chunk])
	}
	e.buf = e.buf[:copy(e.buf, e.buf[n:])]
}

func (e *pairEncoder) send(b []byte) {
	if e.failed {
		return
	}
	if !e.sent {
		if !e.deadline.IsZero() && !time.Now().Before(e.deadline) {
			// The status line is not out yet: leave the response to the
			// handler's 504 rather than commit a 200 whose first write
			// must fail.  The join's own deadline stops it.
			e.failed = true
			return
		}
		e.sent = true
		if !e.deadline.IsZero() {
			// A writer that cannot take a deadline (a test recorder, a
			// wrapper) writes without one.
			_ = http.NewResponseController(e.w).SetWriteDeadline(e.deadline)
		}
		e.w.Header().Set("Content-Type", "application/json")
		e.w.WriteHeader(http.StatusOK)
	}
	if _, err := e.w.Write(b); err != nil {
		e.failed = true
		if e.cancel != nil {
			e.cancel()
		}
	}
}

// digitPairs[i] holds the two decimal digits of i < 100 in ASCII, the first
// in the low byte, so four of them make eight digits of a little-endian
// uint64.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// pow10 holds the powers of ten below 2^32.
var pow10 = [...]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// maxPair is the longest pair, [-2147483648,-2147483648].
const maxPair = 25

// appendPair appends [r,s], each number as strconv.AppendInt writes it.
func appendPair(dst []byte, r, s int32) []byte {
	n := len(dst)
	dst = slices.Grow(dst, maxPair)
	b := dst[n : n+maxPair]
	b[0] = '['
	i := 1 + putInt32(b[1:], r)
	b[i] = ','
	i += 1 + putInt32(b[i+1:], s)
	b[i] = ']'
	return dst[:n+i+1]
}

// putInt32 writes v in decimal at the front of b and returns its length.
// It stores eight digits at a time, leading zeros shifted out, so b must
// hold eight bytes past where they start; a pair's maxPair bytes leave room
// for both numbers.
func putInt32(b []byte, v int32) int {
	u, i := uint32(v), 0
	if v < 0 {
		u, b[0], i = -u, '-', 1 // MinInt32 too: its magnitude fits a uint32
	}
	if u >= 1e8 {
		top := u / 1e8 // 1 to 42
		if d := digitPairs[top]; top < 10 {
			b[i], i = byte(d>>8), i+1
		} else {
			binary.LittleEndian.PutUint16(b[i:], d)
			i += 2
		}
		binary.LittleEndian.PutUint64(b[i:], eightDigits(u-top*1e8))
		return i + 8
	}
	n := bits.Len32(u) * 1233 >> 12 // log10(2) is about 1233/4096: n or n+1 digits
	if u >= pow10[n] {
		n++
	}
	n = max(n, 1)
	binary.LittleEndian.PutUint64(b[i:], eightDigits(u)>>(64-8*n))
	return i + n
}

// eightDigits is u < 10^8 as eight ASCII digits, leading zeros included,
// the first in the low byte.
func eightDigits(u uint32) uint64 {
	hi := u / 1e4
	lo := u - hi*1e4
	a, b := hi/100, lo/100
	return uint64(digitPairs[a]) | uint64(digitPairs[hi-a*100])<<16 | uint64(digitPairs[b])<<32 | uint64(digitPairs[lo-b*100])<<48
}

// PairScanner reads a shard's /join body as it arrives, chunk by chunk, and
// accepts exactly the bytes pairEncoder writes and nothing else:
//
//	{"pairs":[[r,s],...],"epoch":E,"count":N,"retries":R}\n
//
// with the pairs left out when there are none and the retries when they are
// zero; every number in its shortest form (no leading zero, no sign on a
// zero), r and s int32s, E a uint64, N and R non-negative ints.  Whatever it
// accepts json.Unmarshal decodes to the same JoinResponseWire; a body in any
// other form — whitespace, another key order, a key spelt another way — is
// rejected even where encoding/json would take it, because a shard never
// writes one.
//
// Scan hands back the part of each chunk that lies inside the pair array —
// the [r,s] elements and the commas between them — as a sub-slice of the
// chunk, so the gateway can forward the pairs without a copy.  Close checks
// that the body ended where the reply does and that count is the number of
// pairs scanned.
type PairScanner struct {
	// Discard says the request asked for no pairs: the body must carry
	// none, and its count is taken as it stands.
	Discard bool
	// OnPair, if set, sees every pair in body order; an error it returns
	// ends the scan with that error.
	OnPair func(r, s int32) error

	state  scanState
	lit    string    // what scanLit has left to match
	then   scanState // the state after lit
	neg    bool      // the number being read has a minus sign,
	digits int       // this many digits so far,
	v      uint64    // and this magnitude
	r      int32     // the pair's R, once read
	pairs  int
	off    int // the body offset of the chunk being scanned
	wire   JoinResponseWire
	err    error
}

type scanState uint8

const (
	scanStart    scanState = iota // before the opening brace
	scanLit                       // matching a fixed run of bytes
	scanKey                       // after `{"`: the pairs or the epoch
	scanPairOpen                  // the '[' of a pair
	scanR                         // a pair's numbers
	scanS
	scanPairSep // ',' before the next pair, or the array's ']'
	scanEpoch
	scanCount
	scanRetries
	scanDone // after the closing newline
)

// Scan checks the body's next chunk and returns its pair bytes.  After an
// error every later call returns the same error.
func (sc *PairScanner) Scan(chunk []byte) ([]byte, error) {
	if sc.err != nil {
		return nil, sc.err
	}
	from, to := len(chunk), len(chunk)
	if sc.state >= scanPairOpen && sc.state <= scanPairSep { // inside the pair array
		from = 0
	}
	for i := 0; i < len(chunk); i++ {
		if sc.state == scanPairOpen {
			n, err := sc.scanPairs(chunk[i:])
			if err != nil {
				sc.err = err
				return nil, err
			}
			if i += n; i == len(chunk) {
				break
			}
		}
		switch sc.step(chunk[i]) {
		case stepPairsBegin:
			from = i + 1
		case stepPairsEnd:
			to = i
		case stepFail:
			if sc.err == nil {
				sc.err = fmt.Errorf("server: /join body byte %d: %q breaks the canonical reply", sc.off+i, chunk[i])
			}
			return nil, sc.err
		}
	}
	sc.off += len(chunk)
	return chunk[from:to], nil
}

// Close ends the scan: the body must have ended with the reply, and unless
// the request discarded its pairs, count must be the number of pairs.  The
// result carries no pairs; they went to OnPair.
func (sc *PairScanner) Close() (JoinResponseWire, error) {
	switch {
	case sc.err != nil:
	case sc.state != scanDone:
		sc.err = fmt.Errorf("server: /join body ends after %d bytes, inside the reply", sc.off)
	case !sc.Discard && sc.wire.Count != sc.pairs:
		sc.err = fmt.Errorf("server: /join body has count %d but %d pairs", sc.wire.Count, sc.pairs)
	}
	return sc.wire, sc.err
}

// scanPairs is the scan's inner loop: it takes the whole `[r,s],` elements
// at the front of b and reports how many bytes they span.  The last element,
// one a chunk boundary cuts and anything outside the grammar are left to
// step, a byte at a time.
func (sc *PairScanner) scanPairs(b []byte) (int, error) {
	i := 0
	for i < len(b) && b[i] == '[' {
		r, j, ok := scanInt32(b, i+1)
		if !ok || j >= len(b) || b[j] != ',' {
			break
		}
		s, j, ok := scanInt32(b, j+1)
		if !ok || j+1 >= len(b) || b[j] != ']' || b[j+1] != ',' {
			break
		}
		if err := sc.pair(r, s); err != nil {
			return i, err
		}
		i = j + 2
	}
	return i, nil
}

// scanInt32 reads an int32 in its shortest form at b[i:], stopping at the
// first byte that is not a digit; ok is false if there is none, or the
// number is not canonical or out of range.
func scanInt32(b []byte, i int) (v int32, end int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	from := i
	var n int64
	for i < len(b) && i-from <= 10 && b[i]-'0' <= 9 {
		n = n*10 + int64(b[i]-'0')
		i++
	}
	switch d := i - from; {
	case d == 0, d > 10, b[from] == '0' && (d > 1 || neg):
		return 0, i, false
	}
	if neg {
		n = -n
	}
	return int32(n), i, n == int64(int32(n))
}

func (sc *PairScanner) pair(r, s int32) error {
	sc.pairs++
	if sc.OnPair != nil {
		return sc.OnPair(r, s)
	}
	return nil
}

type stepResult uint8

const (
	stepOK         stepResult = iota
	stepPairsBegin            // the pair array's contents start after this byte
	stepPairsEnd              // this byte closes the pair array
	stepFail
)

// step advances the scan by one byte.
func (sc *PairScanner) step(c byte) stepResult {
	switch sc.state {
	case scanStart:
		if c == '{' {
			sc.expect(`"`, scanKey)
			return stepOK
		}
	case scanLit:
		if c == sc.lit[0] {
			if sc.lit = sc.lit[1:]; sc.lit == "" {
				if sc.state = sc.then; sc.then == scanPairOpen {
					return stepPairsBegin
				}
			}
			return stepOK
		}
	case scanKey:
		switch {
		case c == 'p' && !sc.Discard:
			sc.expect(`airs":[`, scanPairOpen)
			return stepOK
		case c == 'e':
			sc.expect(`poch":`, scanEpoch)
			return stepOK
		}
	case scanPairOpen:
		if c == '[' {
			sc.number(scanR)
			return stepOK
		}
	case scanPairSep:
		switch c {
		case ',':
			sc.state = scanPairOpen
			return stepOK
		case ']':
			sc.expect(`,"epoch":`, scanEpoch)
			return stepPairsEnd
		}
	case scanR, scanS, scanEpoch, scanCount, scanRetries:
		return sc.numberByte(c)
	}
	return stepFail
}

// expect matches lit, then goes on in state then; a number there starts
// from nothing.
func (sc *PairScanner) expect(lit string, then scanState) {
	sc.state, sc.lit, sc.then = scanLit, lit, then
	sc.neg, sc.digits, sc.v = false, 0, 0
}

func (sc *PairScanner) number(st scanState) {
	sc.state, sc.neg, sc.digits, sc.v = st, false, 0, 0
}

// numberByte takes one byte of a number, or the byte after it.
func (sc *PairScanner) numberByte(c byte) stepResult {
	limit := uint64(math.MaxInt)
	switch sc.state {
	case scanR, scanS:
		limit = math.MaxInt32
		if sc.neg {
			limit++
		}
	case scanEpoch:
		limit = math.MaxUint64
	}
	if d := uint64(c - '0'); d <= 9 {
		if sc.digits == 1 && sc.v == 0 || sc.v > (limit-d)/10 {
			return stepFail // a leading zero, or out of range
		}
		sc.v, sc.digits = sc.v*10+d, sc.digits+1
		return stepOK
	}
	if c == '-' && sc.digits == 0 && !sc.neg && (sc.state == scanR || sc.state == scanS) {
		sc.neg = true
		return stepOK
	}
	if sc.digits == 0 || sc.neg && sc.v == 0 {
		return stepFail
	}
	v := int64(sc.v)
	if sc.neg {
		v = -v
	}
	switch {
	case sc.state == scanR && c == ',':
		sc.r = int32(v)
		sc.number(scanS)
	case sc.state == scanS && c == ']':
		if sc.err = sc.pair(sc.r, int32(v)); sc.err != nil {
			return stepFail
		}
		sc.state = scanPairSep
	case sc.state == scanEpoch && c == ',':
		sc.wire.Epoch = sc.v
		sc.expect(`"count":`, scanCount)
	case sc.state == scanCount && c == '}':
		sc.wire.Count = int(v)
		sc.expect("\n", scanDone)
	case sc.state == scanCount && c == ',':
		sc.wire.Count = int(v)
		sc.expect(`"retries":`, scanRetries)
	case sc.state == scanRetries && c == '}' && v != 0:
		sc.wire.Retries = int(v)
		sc.expect("\n", scanDone)
	default:
		return stepFail
	}
	return stepOK
}
