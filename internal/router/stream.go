package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/server"
)

// The join fan-out as streams.  Each shard's POST /join runs in its own
// goroutine under Router.do's retry policy, and its body is read in
// WireChunk pieces through a server.PairScanner as it arrives.  The consumer
// — Router.Join collecting pairs, or the gateway forwarding pair bytes —
// waits for every shard's status line, then takes the streams in key-range
// order: the first shard's pieces as they arrive, a later shard's from
// those it queued meanwhile.  An attempt is retried only while none of its
// pieces has been taken; after that a failure is final.

// chunkPool recycles the buffers shard bodies are read into.
var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, server.WireChunk)
	return &b
}}

// piece is one chunk's pair bytes and the pooled buffer holding them.
type piece struct {
	buf   *[]byte
	pairs []byte
}

// shardStream is one shard's /join answer while it arrives.
type shardStream struct {
	sh      Shard
	discard bool // the request discarded pairs
	forward bool // queue the pair bytes for the consumer
	collect bool // keep the pairs for Router.Join
	k       int  // the kNN predicate's K; 0 for the others

	answered chan struct{} // closed at the first 2xx status line, or at the end
	answer   sync.Once
	wake     chan struct{} // capacity 1: a piece was queued, or the stream ended

	mu       sync.Mutex
	queue    []piece
	taken    bool      // the consumer took a piece: the attempt is final
	deadline time.Time // the current attempt's
	finished bool      // the fields below are set

	// Written by the attempt in flight, read by the consumer once finished.
	wire     server.JoinResponseWire
	pairs    [][2]int32
	knn      knnStream
	attempts int
	wall     time.Duration
	err      error
}

// fanout is one join's shard streams, in key-range order.
type fanout struct {
	streams []*shardStream
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// fanOut starts the join on every shard and returns once each has answered
// with a 2xx status line.  If any shard failed instead (after its retries),
// it stops the others and returns a *PartialError.  forward queues the pair
// bytes for fanout.each; otherwise the pairs are collected.
func (rt *Router) fanOut(ctx context.Context, req JoinRequest, forward bool) (*fanout, error) {
	// Parse the predicate up front so a malformed request fails here, with a
	// clear error, instead of as N identical shard rejections.
	pred, err := join.ParsePredicate(req.Predicate)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	ctx, cancel := context.WithCancel(ctx)
	fo := &fanout{cancel: cancel}
	wire := server.JoinRequestWire{Predicate: req.Predicate, DiscardPairs: req.DiscardPairs}
	for _, sh := range rt.shards {
		st := &shardStream{
			sh:       sh,
			discard:  req.DiscardPairs,
			forward:  forward && !req.DiscardPairs,
			collect:  !forward && !req.DiscardPairs,
			answered: make(chan struct{}),
			wake:     make(chan struct{}, 1),
		}
		if pred.Kind == join.PredKNN && !req.DiscardPairs {
			st.k = pred.K
		}
		fo.streams = append(fo.streams, st)
		fo.wg.Add(1)
		go func() {
			defer fo.wg.Done()
			st.run(ctx, rt, wire)
		}()
	}
	var perr PartialError
	for _, st := range fo.streams {
		<-st.answered
	}
	for _, st := range fo.streams {
		if err := st.failure(); err != nil {
			perr.Failures = append(perr.Failures, &ShardError{Shard: st.sh.Name, Err: err})
		} else {
			perr.Succeeded = append(perr.Succeeded, st.sh.Name)
		}
	}
	if len(perr.Failures) > 0 {
		fo.close()
		return nil, &perr
	}
	return fo, nil
}

// each walks the streams in key-range order.  emit, if set, gets every
// piece of pair bytes with its shard's index; the piece's buffer is recycled
// when emit returns.  each fails with the first shard failure, as a
// *PartialError, with a kNN R identifier answered by two shards, or with
// emit's error.
func (fo *fanout) each(emit func(shard int, pairs []byte) error) error {
	for i, st := range fo.streams {
		for {
			p, ok := st.next()
			if !ok {
				break
			}
			err := emit(i, p.pairs)
			chunkPool.Put(p.buf)
			if err != nil {
				return err
			}
		}
		if err := st.failure(); err != nil {
			perr := &PartialError{Failures: []*ShardError{{Shard: st.sh.Name, Err: err}}}
			for j, other := range fo.streams {
				if j != i {
					perr.Succeeded = append(perr.Succeeded, other.sh.Name)
				}
			}
			return perr
		}
		for _, prev := range fo.streams[:i] {
			if r, ok := sharedR(prev.knn.rIDs, st.knn.rIDs); ok {
				return fmt.Errorf("router: kNN: R item %d answered by both %s and %s — R is not disjoint across shards",
					r, prev.sh.Name, st.sh.Name)
			}
		}
	}
	return nil
}

// outcomes returns the per-shard outcomes and the total count; valid after
// each returned nil.
func (fo *fanout) outcomes() ([]ShardOutcome, int) {
	out := make([]ShardOutcome, len(fo.streams))
	total := 0
	for i, st := range fo.streams {
		out[i] = ShardOutcome{Shard: st.sh.Name, Epoch: st.wire.Epoch, Count: st.wire.Count, Attempts: st.attempts, Wall: st.wall}
		total += st.wire.Count
	}
	return out, total
}

// deadline is the latest deadline of the shard attempts in flight: no body
// the consumer waits for can arrive after it.
func (fo *fanout) deadline() time.Time {
	var d time.Time
	for _, st := range fo.streams {
		st.mu.Lock()
		if st.deadline.After(d) {
			d = st.deadline
		}
		st.mu.Unlock()
	}
	return d
}

// close stops every stream still running, waits for them and recycles the
// buffers nobody took.
func (fo *fanout) close() {
	fo.cancel()
	fo.wg.Wait()
	for _, st := range fo.streams {
		st.dropQueue()
	}
}

// run is the stream's goroutine: the request with its retries, then the
// end of the stream.
func (st *shardStream) run(ctx context.Context, rt *Router, wire server.JoinRequestWire) {
	start := rt.cfg.now()
	attempts, err := rt.do(ctx, st.sh, http.MethodPost, "/join", wire, st.read)
	st.mu.Lock()
	st.attempts, st.err, st.wall, st.finished = attempts, err, rt.cfg.now().Sub(start), true
	st.mu.Unlock()
	st.answer.Do(func() { close(st.answered) })
	st.signal()
}

// read is one attempt's 2xx body: scanned a chunk at a time, each chunk's
// pair bytes queued for the consumer as soon as they are checked.
func (st *shardStream) read(ctx context.Context, body io.Reader) error {
	st.mu.Lock()
	st.deadline, _ = ctx.Deadline()
	st.mu.Unlock()
	st.answer.Do(func() { close(st.answered) })

	st.pairs, st.knn = st.pairs[:0], knnStream{k: st.k}
	sc := server.PairScanner{Discard: st.discard}
	if st.collect || st.k > 0 {
		sc.OnPair = st.onPair
	}
	for {
		buf := chunkPool.Get().(*[]byte)
		n, rerr := fill(body, *buf)
		pairs, err := sc.Scan((*buf)[:n])
		if err == nil && st.forward && len(pairs) > 0 {
			st.push(piece{buf: buf, pairs: pairs})
		} else {
			chunkPool.Put(buf)
		}
		if err != nil {
			return fmt.Errorf("protocol violation: %w", err)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return st.cut(fmt.Errorf("reading /join response: %w", rerr))
		}
	}
	wire, err := sc.Close()
	if err != nil {
		return fmt.Errorf("protocol violation: %w", err)
	}
	st.wire = wire
	return nil
}

func (st *shardStream) onPair(r, s int32) error {
	if st.k > 0 {
		if err := st.knn.add(r, s); err != nil {
			return err
		}
	}
	if st.collect {
		st.pairs = append(st.pairs, [2]int32{r, s})
	}
	return nil
}

// cut classifies a body that broke off: worth another attempt only while
// the consumer has taken none of it, in which case its queue is dropped.
func (st *shardStream) cut(err error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.taken {
		return fmt.Errorf("%w, after part of it was forwarded", err)
	}
	st.recycleLocked()
	return &retryableError{err: err}
}

// fill reads into buf until it is full or the body ends (io.EOF) or fails.
func fill(r io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func (st *shardStream) push(p piece) {
	st.mu.Lock()
	st.queue = append(st.queue, p)
	st.mu.Unlock()
	st.signal()
}

func (st *shardStream) signal() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// next takes the stream's next piece, waiting for one; false means the
// stream ended.
func (st *shardStream) next() (piece, bool) {
	for {
		st.mu.Lock()
		if len(st.queue) > 0 {
			p := st.queue[0]
			st.queue = st.queue[1:]
			st.taken = true
			st.mu.Unlock()
			return p, true
		}
		finished := st.finished
		st.mu.Unlock()
		if finished {
			return piece{}, false
		}
		<-st.wake
	}
}

func (st *shardStream) dropQueue() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.recycleLocked()
}

func (st *shardStream) recycleLocked() {
	for _, p := range st.queue {
		chunkPool.Put(p.buf)
	}
	st.queue = nil
}

// failure is the stream's terminal error, once it has ended.
func (st *shardStream) failure() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.finished {
		return nil
	}
	return st.err
}
