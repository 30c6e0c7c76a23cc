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
//	POST /join    JSON {"workers":4,"predicate":"knn:3","discard_pairs":false} (body optional)
//	GET  /stats   per-shard server counters and coverage summaries
//
// Request bodies are strict: a field the server does not know is a 400.
//
// A /join reply is {"count":N,"pairs":[[r,s],...],"shards":[...]}: the
// pair set in Router.Join's order (left out when empty) plus the per-shard
// outcomes a client needs to reason about tail latency and retries.
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
		res, err := rt.Join(r.Context(), JoinRequest{
			Workers:      req.Workers,
			Predicate:    req.Predicate,
			DiscardPairs: req.DiscardPairs,
		})
		if err != nil {
			writeRouterError(w, err)
			return
		}
		buf := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(buf)
		if *buf, err = appendJoinReply((*buf)[:0], res); err != nil {
			writeRouterError(w, err)
			return
		}
		server.WriteJSONBytes(w, http.StatusOK, *buf)
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

// appendJoinReply appends the gateway's /join reply: the pairs through the
// pair codec, the handful of shard outcomes through encoding/json.
func appendJoinReply(dst []byte, res *JoinResult) ([]byte, error) {
	shards, err := json.Marshal(res.Shards)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(res.Count), 10)
	if len(res.Pairs) > 0 {
		dst = append(dst, `,"pairs":`...)
		dst = server.AppendPairArray(dst, res.Pairs)
	}
	dst = append(dst, `,"shards":`...)
	dst = append(dst, shards...)
	return append(dst, '}', '\n'), nil
}

// writeRouterError maps the router's typed errors onto gateway semantics:
// a request the router itself rejected is a 400; every shard shedding means
// the deployment is overloaded, so the router sheds too (503 with the
// largest shard Retry-After); any other partial fan-out is a 502 naming the
// failed shards; a deadline is a 504.
func writeRouterError(w http.ResponseWriter, err error) {
	var perr *PartialError
	switch {
	case errors.Is(err, ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case errors.As(err, &perr):
		if after, allShed := allShedding(perr); allShed {
			secs := int(after / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": "all shards shedding", "failed": shardNames(perr),
			})
			return
		}
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":     err.Error(),
			"failed":    shardNames(perr),
			"succeeded": perr.Succeeded,
		})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// allShedding reports whether every failed shard's terminal error was a
// 503 shed, and the largest Retry-After any of them asked for.
func allShedding(perr *PartialError) (time.Duration, bool) {
	var after time.Duration
	for _, f := range perr.Failures {
		var se *StatusError
		if !errors.As(f, &se) || se.Code != http.StatusServiceUnavailable {
			return 0, false
		}
		if se.RetryAfter > after {
			after = se.RetryAfter
		}
	}
	return after, len(perr.Failures) > 0
}

func shardNames(perr *PartialError) []string {
	names := make([]string, len(perr.Failures))
	for i, f := range perr.Failures {
		names[i] = f.Shard
	}
	return names
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
