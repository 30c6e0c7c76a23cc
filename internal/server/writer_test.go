package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/join"
)

// FuzzAppendPair holds the digit writer to strconv on every pair of int32s.
func FuzzAppendPair(f *testing.F) {
	for _, v := range []int32{0, 9, -9, 10, -10, 99, -99, 100, -100, math.MaxInt32, math.MinInt32} {
		f.Add(v, -v)
		f.Add(v, v)
	}
	f.Fuzz(func(t *testing.T, r, s int32) {
		want := "x[" + strconv.FormatInt(int64(r), 10) + "," + strconv.FormatInt(int64(s), 10) + "]"
		if got := appendPair([]byte("x"), r, s); string(got) != want {
			t.Fatalf("appendPair(%d, %d) = %q, want %q", r, s, got, want)
		}
	})
}

// wallRecorder is a chunkRecorder that also counts the writes made on the
// encoder's writer goroutine.
type wallRecorder struct {
	chunkRecorder
	onWriter int
}

func (w *wallRecorder) Write(b []byte) (int, error) {
	stack := make([]byte, 64<<10)
	if bytes.Contains(stack[:runtime.Stack(stack, false)], []byte(".(*pairEncoder).write(")) {
		w.onWriter++
	}
	return w.chunkRecorder.Write(b)
}

// wantReply is the reply the handler owes req, found without it: the
// sequential SJ4 join's pairs in traversal order, or sorted where the wire
// sorts them.
func wantReply(t *testing.T, fx *fixture, req JoinRequestWire) JoinResponseWire {
	t.Helper()
	pred, err := join.ParsePredicate(req.Predicate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := join.Join(fx.srv.cfg.Store.Tree(), fx.srv.cfg.S, join.Options{Method: join.SJ4, Predicate: pred})
	if err != nil {
		t.Fatal(err)
	}
	wire := JoinResponseWire{Epoch: fx.srv.CurrentEpoch(), Count: res.Count}
	if !req.DiscardPairs {
		if pred.Kind == join.PredKNN || req.Workers > 1 {
			join.SortPairs(res.Pairs)
		}
		wire.Pairs = wirePairs(res.Pairs)
	}
	return wire
}

// checkWireWrites holds a recorded reply to want, the bytes of
// json.NewEncoder(w).Encode for its value: the same body, one write with its
// Content-Length when it fits a WireChunk, and otherwise writes of exactly
// WireChunk bytes but the last, with no Content-Length.
func checkWireWrites(t *testing.T, name string, rec *chunkRecorder, want []byte) {
	t.Helper()
	if rec.code != http.StatusOK || !bytes.Equal(rec.body, want) {
		t.Fatalf("%s: status %d, %d bytes that are not encoding/json's %d", name, rec.code, len(rec.body), len(want))
	}
	var sizes []int
	for n := len(want); n > 0; n -= WireChunk {
		sizes = append(sizes, min(n, WireChunk))
	}
	cl := ""
	if len(want) <= WireChunk {
		cl = strconv.Itoa(len(want))
	}
	if !slices.Equal(rec.writes, sizes) || rec.header.Get("Content-Length") != cl {
		t.Fatalf("%s: writes %v with Content-Length %q, want %v with %q", name, rec.writes, rec.header.Get("Content-Length"), sizes, cl)
	}
}

// TestJoinReplyByteWall drives the handler with a recorder that keeps every
// write: each reply must be json.NewEncoder's bytes for the value it owes,
// cut into WireChunk writes, whether the writer goroutine encoded it (a
// streamed reply) or the handler did (a sorted one, and one with no pairs).
// The last request's reply spans a full block but fits one chunk, so it
// keeps its Content-Length with the writer started.
func TestJoinReplyByteWall(t *testing.T) {
	big := newStreamFixture(t, Config{})
	small := newSizedFixture(t, Config{}, 700, 300, 0.02)
	for _, tc := range []struct {
		fx     *fixture
		req    JoinRequestWire
		writer bool // the writer goroutine makes the reply's writes
	}{
		{big, JoinRequestWire{}, true},
		{big, JoinRequestWire{Predicate: "within:0.0025"}, true},
		{big, JoinRequestWire{Predicate: "knn:4"}, false},
		{big, JoinRequestWire{DiscardPairs: true}, false},
		{big, JoinRequestWire{Workers: 2}, false},
		{small, JoinRequestWire{Predicate: "within:0.034"}, true},
	} {
		wire := wantReply(t, tc.fx, tc.req)
		want := referenceEncode(t, wire)
		if tc.fx == small && (len(wire.Pairs) < blockPairs || len(want) > WireChunk) {
			t.Fatalf("%+v: %d pairs in %d bytes, not a full block under one chunk", tc.req, len(wire.Pairs), len(want))
		}
		rec := &wallRecorder{chunkRecorder: chunkRecorder{header: http.Header{}}}
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(tc.req); err != nil {
			t.Fatal(err)
		}
		NewHandler(tc.fx.srv, HandlerConfig{}).ServeHTTP(rec, httptest.NewRequest("POST", "/join", &body))

		name := fmt.Sprintf("%+v", tc.req)
		checkWireWrites(t, name, &rec.chunkRecorder, want)
		// A one-chunk reply is written by the handler whoever encoded it.
		if writer := tc.writer && len(want) > WireChunk; writer != (rec.onWriter > 0) {
			t.Fatalf("%s: %d of %d writes on the writer goroutine", name, rec.onWriter, len(rec.writes))
		}
	}
}

// goroutinesBack waits for the goroutine count to come back to base.
func goroutinesBack(t *testing.T, base int) {
	t.Helper()
	for start := time.Now(); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestWriterClientDisconnectsMidStream: a client that reads two chunks of a
// streamed reply and hangs up fails the writer's next write, which cancels
// the join; the next reply is whole, with no byte of the cut one, and every
// goroutine is gone once the server closes.
func TestWriterClientDisconnectsMidStream(t *testing.T) {
	fx := newStreamFixture(t, Config{})
	want := referenceEncode(t, wantReply(t, fx, JoinRequestWire{}))
	base := runtime.NumGoroutine()
	ln := newPipeListener()
	hs := &http.Server{Handler: NewHandler(fx.srv, HandlerConfig{})}
	go hs.Serve(ln)

	conn := ln.dial()
	go io.WriteString(conn, "POST /join HTTP/1.1\r\nHost: shard\r\nContent-Length: 2\r\n\r\n{}")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 2*WireChunk)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	for st := fx.srv.Snapshot(); st.Admitted == 0 || st.Inflight != 0; st = fx.srv.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	if st := fx.srv.Snapshot(); st.Done != 0 || st.Cancelled != 1 {
		t.Fatalf("done %d, cancelled %d: want the join cancelled by the failed write", st.Done, st.Cancelled)
	}

	client := &http.Client{Transport: &http.Transport{DialContext: func(context.Context, string, string) (net.Conn, error) {
		return ln.dial(), nil
	}}}
	resp, err = client.Post("http://shard/join", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the next reply: %d bytes (%v), want encoding/json's %d", len(got), err, len(want))
	}
	client.CloseIdleConnections()
	hs.Close()
	goroutinesBack(t, base)
}

// TestWriterAbortAfterBytesAreOut: a join cancelled once the writer has
// sent its first chunk aborts the connection; the next request on the
// server gets a whole reply with no byte of the aborted one, and every
// goroutine is gone once the server closes.
func TestWriterAbortAfterBytesAreOut(t *testing.T) {
	fx := newStreamFixture(t, Config{})
	want := referenceEncode(t, wantReply(t, fx, JoinRequestWire{}))
	base := runtime.NumGoroutine()
	h := NewHandler(fx.srv, HandlerConfig{})
	var served atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !served.Swap(true) {
			ctx, cancel := context.WithCancel(r.Context())
			defer cancel()
			w, r = &firstWriteHook{ResponseWriter: w, fn: cancel}, r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
	}))
	for i, abort := range []bool{true, false} {
		resp, err := http.Post(ts.URL+"/join", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if abort {
			if err == nil || len(got) < WireChunk {
				t.Fatalf("request %d: %d bytes, read error %v: want at least a chunk and an aborted body", i, len(got), err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("request %d: %d bytes (%v), want encoding/json's %d", i, len(got), err, len(want))
		}
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	goroutinesBack(t, base)
}

// TestPairEncoderReusedAfterHalt: an encoder halted with its writer
// running — the pairs of a cut join queued — encodes the next reply with
// none of them, whether the handler reruns into it after a reset or the
// pool hands an encoder out after release, and the writer is gone.
func TestPairEncoderReusedAfterHalt(t *testing.T) {
	base := runtime.NumGoroutine()
	pairs := func(n int, base int32) []join.Pair {
		out := make([]join.Pair, n)
		for i := range out {
			out[i] = join.Pair{R: base + int32(i), S: -base - int32(i)}
		}
		return out
	}
	encode := func(e *pairEncoder, ps []join.Pair) {
		for _, p := range ps {
			e.pair(p)
		}
	}
	check := func(name string, rec *chunkRecorder, ps []join.Pair) {
		t.Helper()
		want := referenceEncode(t, JoinResponseWire{Pairs: wirePairs(ps), Epoch: 9, Count: len(ps)})
		checkWireWrites(t, name, rec, want)
	}

	// A cut join's full block, queued while nothing is sent: the rerun.
	rec := &chunkRecorder{header: http.Header{}}
	e := newPairEncoder(rec, WireChunk)
	encode(e, pairs(blockPairs+5, 1))
	if !e.writing {
		t.Fatal("a full block did not start the writer")
	}
	e.halt()
	if e.writing || e.sent || len(e.fill) != 0 {
		t.Fatalf("after halt: writing %v, sent %v, %d pairs still filling", e.writing, e.sent, len(e.fill))
	}
	e.reset()
	rerun := pairs(3*blockPairs+7, 50)
	encode(e, rerun)
	e.close(9, len(rerun), 0)
	check("rerun after halt", rec, rerun)

	// A join halted with chunks out, its encoder released; the pool
	// usually hands the same one out next, and any it hands out is clean.
	e.release()
	rec = &chunkRecorder{header: http.Header{}}
	e = newPairEncoder(rec, WireChunk)
	encode(e, pairs(5*blockPairs, 7))
	e.halt()
	if !e.sent {
		t.Fatal("five blocks sent no chunk")
	}
	e.release()
	rec = &chunkRecorder{header: http.Header{}}
	e = newPairEncoder(rec, WireChunk)
	if len(e.buf) != 0 || e.pairs != 0 || len(e.fill) != 0 || e.writing || e.sent || e.failed || e.cancel != nil || len(e.queue) != 0 {
		t.Fatalf("pooled encoder keeps state: %d bytes, %d pairs, %d filling, writing %v, sent %v, failed %v, %d queued",
			len(e.buf), e.pairs, len(e.fill), e.writing, e.sent, e.failed, len(e.queue))
	}
	next := pairs(2*blockPairs+1, 900)
	encode(e, next)
	e.close(9, len(next), 0)
	e.release()
	check("reply after release", rec, next)
	goroutinesBack(t, base)
}

// gatedRecorder is a chunkRecorder whose first write waits for gate.
type gatedRecorder struct {
	chunkRecorder
	entered, gate chan struct{}
}

func (g *gatedRecorder) Write(b []byte) (int, error) {
	if len(g.writes) == 0 {
		close(g.entered)
		<-g.gate
	}
	return g.chunkRecorder.Write(b)
}

// TestPairEncoderHaltDropsTheQueue: halt lets the writer finish the block
// it is encoding and drops the blocks queued behind it, so a failed join
// sends no more than it must.  Here the writer's first chunk write, in the
// second of three queued blocks, waits until halt has begun; sending the
// third block would take a second write.
func TestPairEncoderHaltDropsTheQueue(t *testing.T) {
	rec := &gatedRecorder{chunkRecorder: chunkRecorder{header: http.Header{}}, entered: make(chan struct{}), gate: make(chan struct{})}
	e := newPairEncoder(rec, WireChunk)
	for i := int32(0); i < 3*blockPairs+1; i++ {
		e.pair(join.Pair{R: i, S: -i})
	}
	<-rec.entered
	halted := make(chan struct{})
	go func() {
		e.halt()
		close(halted)
	}()
	for !e.drop.Load() {
		runtime.Gosched()
	}
	close(rec.gate)
	<-halted
	if len(rec.writes) != 1 {
		t.Fatalf("%d writes after halt, want the one in progress", len(rec.writes))
	}
	e.release()
}
