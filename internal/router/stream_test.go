package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// The gateway streams tests: every way a pass-through reply can fail, each
// before and after the first byte reaches the client.

// manyPairs is a (R, S)-sorted stream of n pairs starting at R item from,
// several wire chunks long when n is in the thousands.
func manyPairs(from int32, n int) [][2]int32 {
	out := make([][2]int32, n)
	for i := range out {
		out[i] = [2]int32{from + int32(i/2), int32(1_000_000 + i%2)}
	}
	return out
}

// shardBody is the body a shard writes for pairs.
func shardBody(pairs [][2]int32) []byte {
	body, _ := json.Marshal(server.JoinResponseWire{Pairs: pairs, Epoch: 1, Count: len(pairs)})
	return append(body, '\n')
}

// gatewayServer serves NewHandler(rt) over a real listener.
func gatewayServer(t *testing.T, rt *Router) string {
	t.Helper()
	ts := httptest.NewServer(NewHandler(rt))
	t.Cleanup(ts.Close)
	return ts.URL
}

// postAborted posts a join to the gateway and requires the aborted reply: a
// 200 whose body breaks off, and whose bytes are not a reply.
func postAborted(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url+"/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || err == nil {
		t.Fatalf("status %d, read error %v after %d bytes: want a 200 whose body is cut", resp.StatusCode, err, len(got))
	}
	var reply gatewayJoinWire
	if json.Unmarshal(got, &reply) == nil {
		t.Fatalf("the %d bytes before the abort parse as a reply with %d pairs", len(got), len(reply.Pairs))
	}
}

// readAborted posts a join to the gateway, reads the reply's first bytes —
// the first shard's pairs — then closes released and requires the rest of
// the body to break off.
func readAborted(t *testing.T, url string, released chan struct{}) {
	t.Helper()
	resp, err := http.Post(url+"/join", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	head := make([]byte, 64)
	if _, err := io.ReadFull(resp.Body, head); err != nil || !strings.HasPrefix(string(head), `{"pairs":[[0,1000000]`) {
		t.Fatalf("first bytes %q, %v", head, err)
	}
	close(released)
	if rest, err := io.ReadAll(resp.Body); err == nil {
		t.Fatalf("the reply ended normally after %d more bytes", len(rest))
	}
}

// TestGatewayFailsBeforeFirstByte: the gateway waits for every shard's
// status line, so a shard that sheds or fails for good gets the typed
// reply — 503 with Retry-After when every failed shard shed, 502 naming the
// shard otherwise — and not a byte of pairs.
func TestGatewayFailsBeforeFirstByte(t *testing.T) {
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
	}
	broken := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"disk died"}`, http.StatusInternalServerError)
	}
	big := streamShard(manyPairs(0, 5000))
	for _, tc := range []struct {
		name       string
		shards     []http.Handler
		code       int
		retryAfter string
		failed     string
	}{
		{"all shed", []http.Handler{http.HandlerFunc(shed), http.HandlerFunc(shed)}, http.StatusServiceUnavailable, "2", "[a b]"},
		{"one shed", []http.Handler{big, http.HandlerFunc(shed)}, http.StatusServiceUnavailable, "2", "[b]"},
		{"one broken", []http.Handler{big, http.HandlerFunc(broken)}, http.StatusBadGateway, "", "[b]"},
		{"shed and broken", []http.Handler{http.HandlerFunc(shed), http.HandlerFunc(broken)}, http.StatusBadGateway, "", "[a b]"},
	} {
		rt := stubDeployment(t, Config{RetryAttempts: 2, sleep: (&sleepRecorder{}).sleep}, tc.shards...)
		w := postJSON(NewHandler(rt), "/join", "")
		var body struct {
			Error  string   `json:"error"`
			Failed []string `json:"failed"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("%s: body %.200s is not an error object", tc.name, w.Body)
		}
		if w.Code != tc.code || w.Header().Get("Retry-After") != tc.retryAfter || fmt.Sprint(body.Failed) != tc.failed {
			t.Errorf("%s: %d, Retry-After %q, failed %v; want %d, %q, %s",
				tc.name, w.Code, w.Header().Get("Retry-After"), body.Failed, tc.code, tc.retryAfter, tc.failed)
		}
	}
}

// TestGatewayAbortsCutStreams: a shard body that breaks off after the
// gateway has forwarded pairs aborts the reply.  A shard whose own bytes
// have not reached the client is retried first, under the usual policy.
func TestGatewayAbortsCutStreams(t *testing.T) {
	t.Run("second shard cut after the first shard's bytes went out", func(t *testing.T) {
		var hits atomic.Int32
		released := make(chan struct{})
		// The cut falls before the pair array, so no attempt ever has a piece
		// the reply could take: every attempt is retried.
		body := shardBody(manyPairs(10_000, 40))
		second := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Write(body[:5])
			w.(http.Flusher).Flush()
			<-released // the client has read the first shard's first bytes
			panic(http.ErrAbortHandler)
		})
		rt := stubDeployment(t, Config{RetryAttempts: 3, sleep: (&sleepRecorder{}).sleep},
			streamShard(manyPairs(0, 5000)), second)
		readAborted(t, gatewayServer(t, rt), released)
		if n := hits.Load(); n != 3 {
			t.Fatalf("the cut shard was asked %d times, want 3: none of its bytes had gone out", n)
		}
	})
	t.Run("first shard cut after its bytes went out", func(t *testing.T) {
		var hits atomic.Int32
		released := make(chan struct{})
		body := shardBody(manyPairs(0, 20_000))
		first := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Write(body[:3*server.WireChunk])
			w.(http.Flusher).Flush()
			<-released // the client has read the first bytes
			panic(http.ErrAbortHandler)
		})
		rt := stubDeployment(t, Config{RetryAttempts: 3, sleep: (&sleepRecorder{}).sleep},
			first, streamShard(manyPairs(50_000, 10)))
		readAborted(t, gatewayServer(t, rt), released)
		if n := hits.Load(); n != 1 {
			t.Fatalf("the first shard was asked %d times, want 1: its bytes had gone out", n)
		}
	})
}

// TestGatewayAbortsBadStreams: a shard body that breaks the canonical
// grammar or whose count is not its number of pairs is a protocol
// violation, never retried; after the first forwarded byte it aborts the
// reply, before it the gateway answers 502.
func TestGatewayAbortsBadStreams(t *testing.T) {
	long := shardBody(manyPairs(0, 20_000))
	badByte := strings.Replace(string(long), "[9000,", "[9000,x", 1)
	miscount := strings.Replace(string(long), `"count":20000`, `"count":19999`, 1)
	for name, body := range map[string]string{"grammar": badByte, "count": miscount} {
		var hits atomic.Int32
		released := make(chan struct{})
		shard := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			io.WriteString(w, body[:3*server.WireChunk])
			w.(http.Flusher).Flush()
			<-released // the client has read the first bytes
			io.WriteString(w, body[3*server.WireChunk:])
		})
		rt := stubDeployment(t, Config{RetryAttempts: 3, sleep: (&sleepRecorder{}).sleep}, shard, streamShard(nil))
		readAborted(t, gatewayServer(t, rt), released)
		if n := hits.Load(); n != 1 {
			t.Errorf("%s: %d requests, want 1", name, n)
		}
	}
	short := strings.Replace(string(shardBody(manyPairs(0, 4))), `"count":4`, `"count":5`, 1)
	rt := stubDeployment(t, Config{RetryAttempts: 3}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, short)
	}), streamShard(nil))
	if w := postJSON(NewHandler(rt), "/join", ""); w.Code != http.StatusBadGateway || !strings.Contains(w.Body.String(), "count 5 but 4 pairs") {
		t.Fatalf("a short miscounted stream: %d %s, want 502 naming the mismatch", w.Code, w.Body)
	}
}

// TestGatewayRejectsDoubleHomedKNN: a kNN R item answered by two shards is
// refused — an error before the first byte, an aborted reply after it.
func TestGatewayRejectsDoubleHomedKNN(t *testing.T) {
	rt := stubDeployment(t, Config{}, streamShard([][2]int32{{1, 10}, {2, 10}}), streamShard([][2]int32{{2, 11}}))
	w := postJSON(NewHandler(rt), "/join", `{"predicate":"knn:2"}`)
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "R item 2 answered by both a and b") {
		t.Fatalf("double-homed kNN: %d %s", w.Code, w.Body)
	}
	rt = stubDeployment(t, Config{}, streamShard(manyPairs(0, 5000)), streamShard([][2]int32{{2499, 11}}))
	postAborted(t, gatewayServer(t, rt), `{"predicate":"knn:2"}`)
	if _, err := rt.Join(context.Background(), JoinRequest{Predicate: "knn:2"}); err == nil || !strings.Contains(err.Error(), "not disjoint") {
		t.Fatalf("Router.Join over a double-homed item: %v", err)
	}
}

// pipeListener serves connections made with dial over net.Pipe: nothing
// buffers between the two ends, so a client that does not read blocks the
// server's first write.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestGatewayStalledClientReleasesShards: a client that asks for a join
// and never reads the reply must not hold the gateway's handler, its shard
// requests or their connections past the shard deadline.  The blocked
// write fails at the deadline, the fan-out is cancelled, and the goroutine
// count returns to where it was before the request.
func TestGatewayStalledClientReleasesShards(t *testing.T) {
	const deadline = 300 * time.Millisecond
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	rt, fixtures := newDeployment(t, 2, func(c *Config) {
		c.ShardTimeout = deadline
		c.Client = &http.Client{Transport: transport}
	})
	rOps := genROps(2000, 11)
	for i := range rOps {
		rOps[i].XU += 0.15
		rOps[i].YU += 0.15
	}
	loadDeployment(t, rt, rOps)
	res, err := rt.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count*8 < 2*server.WireChunk {
		t.Fatalf("the join has %d pairs, too few to fill several wire chunks", res.Count)
	}

	ln := newPipeListener()
	hs := &http.Server{Handler: NewHandler(rt)}
	go hs.Serve(ln)
	defer hs.Close()
	transport.CloseIdleConnections()
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	conn := ln.dial()
	defer conn.Close()
	go io.WriteString(conn, "POST /join HTTP/1.1\r\nHost: gateway\r\nContent-Length: 2\r\n\r\n{}")
	start := time.Now()
	for {
		transport.CloseIdleConnections()
		n := runtime.NumGoroutine()
		if n <= baseline && time.Since(start) > deadline {
			break
		}
		if time.Since(start) > 20*deadline {
			t.Fatalf("after %v: %d goroutines, %d before the stalled request", time.Since(start), n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, fx := range fixtures {
		if st := fx.srv.Snapshot(); st.Inflight != 0 {
			t.Fatalf("%s: %d joins in flight after the stalled request ended", fx.name, st.Inflight)
		}
	}
}

// TestGatewayBacklogIs503: a shard refusing an update for a full staged
// backlog answers 503 with Retry-After; the router retries it as a shed,
// and the gateway passes the 503 and the Retry-After on.
func TestGatewayBacklogIs503(t *testing.T) {
	var hits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		server.WriteJoinError(w, fmt.Errorf("%w: 5 ops staged", server.ErrBacklogFull))
	})
	rec := &sleepRecorder{}
	rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 2, sleep: rec.sleep})
	if err != nil {
		t.Fatal(err)
	}
	ops := genROps(3, 1)
	staged, err := rt.Update(context.Background(), ops)
	var perr *PartialError
	var se *StatusError
	if staged != 0 || !errors.As(err, &perr) || !errors.As(perr.Failures[0], &se) ||
		se.Code != http.StatusServiceUnavailable || se.RetryAfter != time.Second {
		t.Fatalf("Update = %d, %v; want 0 and the shard's 503 with its Retry-After", staged, err)
	}
	body, _ := json.Marshal(ops)
	w := postJSON(NewHandler(rt), "/update", string(body))
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("gateway /update over a full backlog: %d, Retry-After %q, %s", w.Code, w.Header().Get("Retry-After"), w.Body)
	}
	if n := hits.Load(); n != 4 {
		t.Fatalf("%d shard requests, want 2 per update", n)
	}
}
