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
	"time"
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
// permanent, and context cancellation stops everything.  read, if set,
// consumes a 2xx body within the attempt's deadline; it reports a failure
// worth another attempt as a *retryableError.  do returns the number of
// attempts made.  body, the request body if not nil, is sent as it is on
// every attempt.
func (rt *Router) do(ctx context.Context, sh Shard, method, path string, body []byte, read bodyReader) (int, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := rt.once(ctx, sh, method, path, body, read)
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

// bodyReader consumes a 2xx response body; ctx is the attempt's.
type bodyReader func(ctx context.Context, body io.Reader) error

// decodeJSON is the bodyReader of the small replies: /update, /stats.
func decodeJSON(out any) bodyReader {
	return func(_ context.Context, body io.Reader) error {
		if err := json.NewDecoder(body).Decode(out); err != nil {
			return fmt.Errorf("decoding response: %w", err)
		}
		return nil
	}
}

// once issues a single attempt bounded by ShardTimeout and classifies the
// outcome: nil on 2xx (with the body read), *retryableError on transport
// failures, 5xx and bodies read says are worth another try, a permanent
// error otherwise.
func (rt *Router) once(ctx context.Context, sh Shard, method, path string, body []byte, read bodyReader) error {
	attemptCtx := ctx
	if rt.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, rt.cfg.ShardTimeout)
		defer cancel()
	}
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
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
		if read == nil {
			return nil
		}
		err := read(attemptCtx, resp.Body)
		if err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return err
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
