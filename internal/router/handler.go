package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
)

// NewHandler builds the gateway's HTTP surface over a router — the same
// endpoints a single daemon serves (server.NewHandler), answered by the
// whole deployment:
//
//	POST /update  JSON [{"xl":..,"yl":..,"xu":..,"yu":..,"data":1}, ...]
//	POST /round   commit staged mutations on every shard
//	POST /join    JSON {"predicate":"knn:3","discard_pairs":false} (body optional)
//	GET  /stats   per-shard server counters and coverage summaries
//
// Request bodies are strict: a field the server does not know is a 400.
//
// A /join reply is {"pairs":[[r,s],...],"count":N,"shards":[...]}: the
// pair set in Router.Join's order (left out when empty), then the total and
// the per-shard outcomes a client needs to reason about tail latency and
// retries.  The gateway passes the shards' pair bytes through as they
// arrive, checked by the same scanner Router.Join reads with; see
// replyWriter for the framing and for what a failure after the first byte
// does.
func NewHandler(rt *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		var ops []server.OpWire
		if !server.DecodeRequest(w, r, server.MaxUpdateBody, &ops) {
			return
		}
		staged, err := rt.Update(r.Context(), ops)
		if err != nil {
			writeRouterError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]int{"staged": staged})
	})
	mux.HandleFunc("POST /round", func(w http.ResponseWriter, r *http.Request) {
		if err := rt.Round(r.Context()); err != nil {
			writeRouterError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		var req server.JoinRequestWire
		if r.ContentLength != 0 && !server.DecodeRequest(w, r, server.MaxJoinBody, &req) {
			return
		}
		fo, err := rt.fanOut(r.Context(), JoinRequest{
			Predicate:    req.Predicate,
			DiscardPairs: req.DiscardPairs,
		}, true)
		if err != nil {
			writeRouterError(w, err)
			return
		}
		defer fo.close()
		rw := replyWriter{w: w, deadline: fo.deadline(), shard: -1}
		if err = fo.each(rw.pairs); err == nil {
			err = rw.close(fo.outcomes())
		}
		switch {
		case err == nil:
		case !rw.sent:
			writeRouterError(w, err)
		default:
			// The status line and part of the pairs are out.  Ending the body
			// normally would hand the client a well-formed partial answer;
			// aborting the connection makes it a failed read.  The deferred
			// close stops the shard requests still running.
			panic(http.ErrAbortHandler)
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		stats, err := rt.Stats(r.Context())
		if err != nil {
			writeRouterError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, stats)
	})
	return mux
}

// replyWriter writes the gateway's /join reply while the shard streams
// arrive: each shard's pair bytes as they come, in key-range order with a
// comma between two shards' runs, then the fields known at the end.  Like
// the shard's encoder it holds back the first WireChunk bytes, so a reply
// that fits goes out whole with its Content-Length and a longer one is
// chunked.  Once a byte is out, writes carry the shard deadline: a client
// that stops reading cannot hold the shard requests past it, and a failed
// write ends the fan-out.
type replyWriter struct {
	w        http.ResponseWriter
	deadline time.Time
	buf      []byte
	shard    int  // the shard whose pair bytes came last; -1 before any
	sent     bool // the status line is out
}

func (rw *replyWriter) pairs(shard int, b []byte) error {
	var err error
	switch {
	case rw.shard < 0:
		err = rw.write([]byte(`{"pairs":[`))
	case shard != rw.shard:
		err = rw.write([]byte{','})
	}
	rw.shard = shard
	if err != nil {
		return err
	}
	return rw.write(b)
}

// close writes the fields after the pairs — the bytes encoding/json writes
// for the struct {Pairs, Count, Shards} — and the rest of the reply.
func (rw *replyWriter) close(shards []ShardOutcome, count int) error {
	outcomes, err := json.Marshal(shards)
	if err != nil {
		return err
	}
	tail := []byte(`{"count":`)
	if rw.shard >= 0 {
		tail = []byte(`],"count":`)
	}
	tail = strconv.AppendInt(tail, int64(count), 10)
	tail = append(tail, `,"shards":`...)
	tail = append(append(tail, outcomes...), '}', '\n')
	if !rw.sent && len(rw.buf)+len(tail) <= server.WireChunk {
		rw.setDeadline()
		server.WriteJSONBytes(rw.w, http.StatusOK, append(rw.buf, tail...))
		return nil
	}
	return rw.write(tail)
}

func (rw *replyWriter) write(b []byte) error {
	if !rw.sent {
		// A reply of a full chunk before its last field cannot fit one: the
		// first byte goes out now.
		if len(rw.buf)+len(b) < server.WireChunk {
			rw.buf = append(rw.buf, b...)
			return nil
		}
		rw.sent = true
		rw.setDeadline()
		rw.w.Header().Set("Content-Type", "application/json")
		rw.w.WriteHeader(http.StatusOK)
		if _, err := rw.w.Write(rw.buf); err != nil {
			return err
		}
	}
	_, err := rw.w.Write(b)
	return err
}

func (rw *replyWriter) setDeadline() {
	if !rw.deadline.IsZero() {
		// A writer that cannot take a deadline (a test recorder) writes
		// without one.
		_ = http.NewResponseController(rw.w).SetWriteDeadline(rw.deadline)
	}
}

// writeRouterError maps the router's typed errors onto gateway semantics:
// a request the router itself rejected is a 400; every failed shard
// shedding — or refusing an update for a full backlog — means the
// deployment is overloaded, so the router sheds too (503 with the largest
// shard Retry-After); any other partial fan-out is a 502 naming the failed
// shards; a deadline is a 504.
func writeRouterError(w http.ResponseWriter, err error) {
	var perr *PartialError
	var serr *ShardError
	var failed []*ShardError
	switch {
	case errors.As(err, &perr):
		failed = perr.Failures
	case errors.As(err, &serr):
		failed = []*ShardError{serr}
	}
	if after, allShed := allShedding(failed); allShed {
		secs := int(after / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "all shards shedding", "failed": shardNames(failed),
		})
		return
	}
	switch {
	case errors.Is(err, ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case perr != nil:
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":     err.Error(),
			"failed":    shardNames(failed),
			"succeeded": perr.Succeeded,
		})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// allShedding reports whether every failed shard's terminal error was a
// 503, and the largest Retry-After any of them asked for.
func allShedding(failed []*ShardError) (time.Duration, bool) {
	var after time.Duration
	for _, f := range failed {
		var se *StatusError
		if !errors.As(f, &se) || se.Code != http.StatusServiceUnavailable {
			return 0, false
		}
		if se.RetryAfter > after {
			after = se.RetryAfter
		}
	}
	return after, len(failed) > 0
}

func shardNames(failed []*ShardError) []string {
	names := make([]string, len(failed))
	for i, f := range failed {
		names[i] = f.Shard
	}
	return names
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
