package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// ErrPartialFailure marks a fan-out where some shards answered and at least
// one did not, even after retries.  The router returns no pairs in that
// case: a silently truncated join is worse than a failed one, because the
// caller cannot tell the difference.
var ErrPartialFailure = errors.New("router: partial shard failure")

// ShardError attributes an error to one shard.
type ShardError struct {
	Shard string
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %s: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// PartialError reports which shards of a fan-out failed and which answered.
// It unwraps to ErrPartialFailure so callers can classify without digging.
type PartialError struct {
	Failures  []*ShardError
	Succeeded []string
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("router: %d of %d shards failed: %v",
		len(e.Failures), len(e.Failures)+len(e.Succeeded), e.Failures[0])
}

func (e *PartialError) Unwrap() error { return ErrPartialFailure }

// StatusError is a non-2xx shard response.  It survives the retry
// wrapping, so a caller holding a *PartialError can classify each shard's
// terminal failure — e.g. cmd/spatialjoinrouter maps "every shard was
// shedding" to its own 503 + Retry-After instead of a generic 502.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the shard's parsed Retry-After wish (503 only; 0 when
	// absent or malformed).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string { return fmt.Sprintf("status %d: %s", e.Code, e.Msg) }

// retryableError marks a failed attempt worth retrying — a transport error,
// a 5xx, or a 503 shed, which also carries the shard's Retry-After wish.
type retryableError struct {
	err   error
	after time.Duration // 0 means use the router's backoff
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// do issues one shard request with the router's retry policy: transport
// errors and 5xx responses retry with doubling backoff, a shedding shard's
// Retry-After is honoured (capped at MaxRetryAfter), 4xx responses are
// permanent, and context cancellation stops everything.  It returns the
// number of attempts made.
func (rt *Router) do(ctx context.Context, sh Shard, method, path string, body, out any) (int, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := rt.once(ctx, sh, method, path, body, out)
		if err == nil {
			return attempt, nil
		}
		lastErr = err
		var re *retryableError
		if !errors.As(err, &re) || attempt >= rt.cfg.RetryAttempts {
			return attempt, fmt.Errorf("%s %s after %d attempt(s): %w", method, path, attempt, lastErr)
		}
		delay := re.after
		if delay <= 0 {
			delay = rt.cfg.RetryBackoff << (attempt - 1)
		}
		if delay > rt.cfg.MaxRetryAfter {
			delay = rt.cfg.MaxRetryAfter
		}
		if err := rt.cfg.sleep(ctx, delay); err != nil {
			return attempt, fmt.Errorf("%s %s: %w (last shard error: %v)", method, path, err, lastErr)
		}
	}
}

// bodyPool recycles the buffers /join bodies are read into and the
// gateway's /join replies are assembled in.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readAll is io.ReadAll appending to a caller-owned buffer.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// once issues a single attempt bounded by ShardTimeout and classifies the
// outcome: nil on 2xx (with out decoded), *retryableError on transport
// failures and 5xx, a permanent error otherwise.
func (rt *Router) once(ctx context.Context, sh Shard, method, path string, body, out any) error {
	attemptCtx := ctx
	if rt.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, rt.cfg.ShardTimeout)
		defer cancel()
	}
	var reqBody io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reqBody = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(attemptCtx, method, sh.URL+path, reqBody)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		// The caller's own context ending is permanent; only this attempt
		// timing out (or the transport failing) is worth another try.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &retryableError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		var err error
		switch out := out.(type) {
		case nil:
		case *server.JoinResponseWire:
			// The body is mostly integer pairs: read it whole and hand it to
			// the pair codec instead of reflecting over it.
			buf := bodyPool.Get().(*[]byte)
			defer bodyPool.Put(buf)
			if *buf, err = readAll((*buf)[:0], resp.Body); err != nil {
				// A shard that fails after its first chunk aborts the body,
				// so the failure shows only here, as a transport error.
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return &retryableError{err: fmt.Errorf("reading %s response: %w", path, err)}
			}
			err = server.DecodeJoinResponse(*buf, out)
		default:
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		if err != nil {
			return fmt.Errorf("decoding %s response: %w", path, err)
		}
		return nil
	}
	herr := &StatusError{Code: resp.StatusCode, Msg: errorBody(resp.Body)}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		herr.RetryAfter = retryAfter(resp)
		return &retryableError{err: herr, after: herr.RetryAfter}
	case resp.StatusCode >= 500:
		return &retryableError{err: herr}
	default:
		return herr
	}
}

// retryAfter reads a shed response's Retry-After. RFC 9110 allows only
// whole seconds (or an HTTP-date, which shards never send); anything
// unparseable falls back to the router's own backoff.
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// errorBody extracts the handler's {"error": ...} message, falling back to
// the raw (truncated) body.
func errorBody(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 512))
	if err != nil || len(raw) == 0 {
		return "<no body>"
	}
	var wire struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &wire) == nil && wire.Error != "" {
		return wire.Error
	}
	return string(bytes.TrimSpace(raw))
}
