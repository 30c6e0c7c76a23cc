package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/zorder"
)

// The HTTP surface of a join server: spatialjoind mounts it over its single
// process; with a HandlerConfig.Shard range the same surface serves one
// Hilbert shard of a sharded deployment, and the router in internal/router
// fans out across many of them.  The wire types are exported so router and
// shard agree on the protocol by construction.

// OpWire is one staged mutation on the wire.
type OpWire struct {
	XL     float64 `json:"xl"`
	YL     float64 `json:"yl"`
	XU     float64 `json:"xu"`
	YU     float64 `json:"yu"`
	Data   int32   `json:"data"`
	Delete bool    `json:"delete,omitempty"`
}

// Rect returns the op's rectangle.
func (o OpWire) Rect() geom.Rect {
	return geom.Rect{XL: o.XL, YL: o.YL, XU: o.XU, YU: o.YU}
}

// JoinRequestWire is the POST /join body.  All fields are optional; the
// zero value is the intersection join with pairs.  A body naming any other
// field is rejected (400).
type JoinRequestWire struct {
	// Predicate selects the join condition in join.ParsePredicate's textual
	// form: "intersects" (the default when the field is left out),
	// "within:EPS" or "knn:K".
	Predicate string `json:"predicate,omitempty"`
	// DiscardPairs suppresses materialising the pairs in the response.
	DiscardPairs bool `json:"discard_pairs,omitempty"`
}

// JoinResponseWire is the POST /join response.  The pair order is
// deterministic: the same request on the same epoch gets the same bytes.  A
// sequential intersection or within-distance join sends its pairs in
// traversal order as it finds them, which is why Pairs comes first and the
// fields known only at the end follow.  A kNN join sends its pairs sorted by
// (R, S): the router checks kNN answers one R at a time.
//
// The shard never encodes this struct: its pair codec (paircodec.go) writes
// exactly json.NewEncoder(w).Encode's bytes for it, newline included, in
// WireChunk writes, and the router reads them back with PairScanner.  The
// struct is the codec's reference, and the client's decoding target.
type JoinResponseWire struct {
	Pairs   [][2]int32 `json:"pairs,omitempty"`
	Epoch   uint64     `json:"epoch"`
	Count   int        `json:"count"`
	Retries int        `json:"retries,omitempty"`
}

// StatsWire is the GET /stats response: the server counters, the snapshot's
// coverage summary, the shard's key range (empty for an unsharded daemon)
// and the number of staged-but-uncommitted mutations.
type StatsWire struct {
	Stats    StatsSnapshot `json:"stats"`
	Coverage Coverage      `json:"coverage"`
	Shard    string        `json:"shard,omitempty"`
	Pending  int           `json:"pending"`
}

// HandlerConfig configures the HTTP surface.
type HandlerConfig struct {
	// Shard, when non-nil, is the half-open Hilbert key range this server
	// owns.  POST /update rejects (400) any op whose rectangle centre keys
	// outside the range: a misrouted op silently indexed on the wrong shard
	// would break the router's one-home-per-rectangle routing, so the shard
	// refuses it outright.  The range is checked only once every op of the
	// batch is well formed (CheckOp); a malformed op gets that typed 400.
	Shard *zorder.KeyRange
}

// UnitWorld is the rectangle the Hilbert key grid covers, on every shard and
// in the router: the synthetic datasets live in the unit square.  It does
// not bound the data: a centre outside it keys to the nearest edge cell.
var UnitWorld = geom.Rect{XL: 0, YL: 0, XU: 1, YU: 1}

// Request body caps.  A /join body is four small fields; an /update batch
// of a thousand ops is about 100 KB.  Anything past the cap is answered 413
// before it is buffered.
const (
	MaxJoinBody   = 1 << 20
	MaxUpdateBody = 8 << 20
)

// DecodeRequest decodes a JSON request body of at most limit bytes into v.
// On failure it writes the error response — 413 for an oversize body, 400
// for a malformed one or one naming a field v does not have — and reports
// false.
func DecodeRequest(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeRequestError(w, err)
		return false
	}
	return true
}

// writeRequestError writes the response to a request body that could not
// be read or decoded: 413 past the body limit, 400 otherwise.
func writeRequestError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, err)
}

// NewHandler builds the HTTP surface over a join server.
func NewHandler(srv *Server, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		ops, ok := DecodeOpsRequest(w, r)
		if !ok {
			return
		}
		batch := make([]Op, len(ops))
		for i, op := range ops {
			batch[i] = Op{Rect: op.Rect(), Data: op.Data, Delete: op.Delete}
			if err := CheckOp(i, batch[i].Rect); err != nil {
				WriteJoinError(w, err)
				return
			}
		}
		// A malformed op gets the typed 400 wherever its centre keys (a
		// NaN corner keys nowhere), so the whole batch is checked first.
		if cfg.Shard != nil {
			for i, op := range batch {
				if key := zorder.HilbertKey(op.Rect.Center(), UnitWorld); !cfg.Shard.Contains(key) {
					httpError(w, http.StatusBadRequest,
						fmt.Errorf("op %d: centre key %d outside shard range %s", i, key, cfg.Shard))
					return
				}
			}
		}
		if err := srv.Update(batch); err != nil {
			WriteJoinError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]int{"staged": len(batch)})
	})
	mux.HandleFunc("POST /round", func(w http.ResponseWriter, r *http.Request) {
		rs, err := srv.Round()
		if err != nil {
			WriteJoinError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rs)
	})
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequestWire
		if r.ContentLength != 0 && !DecodeRequest(w, r, MaxJoinBody, &req) {
			return
		}
		pred, err := join.ParsePredicate(req.Predicate)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// A sequential traversal's pair order is fixed by the epoch and the
		// request, so its pairs are encoded and sent as they are found.
		stream := !req.DiscardPairs && pred.Kind != join.PredKNN
		ctx, cancel := srv.withDeadline(r.Context())
		defer cancel()
		enc := newPairEncoder(w, WireChunk)
		defer enc.release()
		enc.deadline, _ = ctx.Deadline()
		enc.cancel = cancel
		jr := JoinRequest{
			Predicate:    pred,
			DiscardPairs: req.DiscardPairs || stream,
		}
		if stream {
			jr.OnPair = enc.pair
		}
		// A failed join stops the writer with what is still queued dropped,
		// a finished one once the queue is sent; only then does the handler
		// look at what left the process.
		resp, err := srv.Join(ctx, jr)
		if err != nil {
			enc.halt()
		}
		if errors.Is(err, ErrTransient) && !enc.sent {
			// The fault cut a stream that never left the process: run the
			// join once more into a clean one, counting the cut attempt.
			enc.reset()
			if resp, err = srv.Join(ctx, jr); err == nil {
				resp.Retries++
			} else {
				enc.halt()
			}
		}
		if err == nil {
			enc.drain()
			if enc.expired() {
				err = errReplyExpired
			}
		}
		if err == nil && enc.sent {
			// The traversal sees its context through an asynchronous watch,
			// so a deadline or cancel can land after its last look.  A
			// streamed reply must not end normally then either: its writes
			// carry that deadline, and a cancel means the client left.
			err = ctx.Err()
		}
		if err != nil {
			if enc.sent {
				// The status line and part of the body are out.  Ending the
				// body normally would hand the client a well-formed partial
				// answer; aborting the connection makes it a failed read.
				panic(http.ErrAbortHandler)
			}
			WriteJoinError(w, err)
			return
		}
		if !req.DiscardPairs && !stream {
			join.SortPairs(resp.Pairs)
			enc.encode(resp.Pairs)
		}
		enc.close(resp.Epoch, resp.Count, resp.Retries)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		out := StatsWire{
			Stats:    srv.Snapshot(),
			Coverage: srv.Coverage(),
			Pending:  srv.Pending(),
		}
		if cfg.Shard != nil {
			out.Shard = cfg.Shard.String()
		}
		writeJSON(w, http.StatusOK, out)
	})
	return mux
}

// WriteJoinError maps the server's typed errors onto HTTP status codes.
func WriteJoinError(w http.ResponseWriter, err error) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		// RFC 9110 requires Retry-After in whole seconds; a fractional value
		// like "0.5" parses as 0 on conforming clients, which then retry
		// immediately and defeat the shedding.  Round up, never below 1.
		secs := int(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrBacklogFull):
		// The backlog drains at the next round, which the writer drives.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrMalformedOp):
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrDeadline):
		httpError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, join.ErrCancelled):
		// 499: client closed request (nginx convention).
		httpError(w, 499, err)
	case errors.Is(err, ErrServerBroken), errors.Is(err, ErrClosed), errors.Is(err, ErrTransient):
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// WriteJSONBytes writes an already encoded JSON body, with its length: the
// pair codec's side of writeJSON.
func WriteJSONBytes(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
