// Package server is the concurrent join front-end over one mutable indexed
// dataset: many readers join against an immutable epoch snapshot while a
// single writer applies Hilbert-ordered mixed batches, flipping snapshots
// atomically at round boundaries.  The robustness layer bounds every failure
// mode with a typed error: overload sheds (ErrShed with a retry hint),
// deadlines cancel mid-traversal (ErrDeadline), and storage faults that
// survive retry make the server sticky-broken (ErrServerBroken) until Reopen
// recovers it — an admitted query therefore always terminates with either a
// result identical to the sequential join on its snapshot or one of these
// errors, never a hang and never a torn tree.
package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/geom"
)

// Typed errors every admitted or rejected request resolves to.
var (
	// ErrShed rejects a request at admission: the queued work already
	// exceeds the server's cost budget or its slot capacity.  The error is
	// a *ShedError carrying a retry hint.
	ErrShed = errors.New("server: overloaded, request shed")
	// ErrDeadline marks a request cancelled by its deadline; the join's
	// partial work was discarded deterministically.
	ErrDeadline = errors.New("server: deadline exceeded")
	// ErrServerBroken is returned for every request after a storage fault
	// survived the retry budget (or the pager itself reported
	// storage.ErrPagerBroken).  The state is sticky: only Reopen, which
	// re-runs pager recovery and rebuilds the epoch, clears it.
	ErrServerBroken = errors.New("server: storage broken, reopen required")
	// ErrTransient marks a join that a storage fault ended after its pair
	// observer (JoinRequest.OnPair) had seen part of the answer, and that a
	// later attempt without the observer found gone.  Re-running it for the
	// observer would replay that part, so the server leaves the re-run to
	// the caller and stays healthy.  A fault that outlasts those attempts is
	// ErrServerBroken, as for any join.
	ErrTransient = errors.New("server: transient storage fault after pairs were observed")
	// ErrClosed is returned once Close has begun.
	ErrClosed = errors.New("server: closed")
	// ErrMalformedOp rejects an Update batch holding an op whose rectangle
	// is not well formed (geom.Rect.WellFormed).  The error is a
	// *MalformedOpError naming the op; nothing of the batch is staged.
	ErrMalformedOp = errors.New("server: malformed update op")
	// ErrBacklogFull rejects an Update batch that would take the ops staged
	// since the last round past MaxStagedOps.  Nothing of the batch is
	// staged; it can be sent again after the next round.
	ErrBacklogFull = errors.New("server: staged backlog full")
)

// MalformedOpError is the concrete type behind ErrMalformedOp.
type MalformedOpError struct {
	// Index is the position of the first malformed op in its batch.
	Index int
	// Rect is that op's rectangle.
	Rect geom.Rect
}

func (e *MalformedOpError) Error() string {
	return fmt.Sprintf("server: op %d: rectangle %v is not well formed (finite corners, xl <= xu, yl <= yu)", e.Index, e.Rect)
}

// Unwrap makes errors.Is(err, ErrMalformedOp) true for every *MalformedOpError.
func (e *MalformedOpError) Unwrap() error { return ErrMalformedOp }

// CheckOp returns a *MalformedOpError naming op i if its rectangle r is not
// well formed, and nil if it is.  The trees take rectangles on trust — a
// malformed one makes every later join over them wrong without an error — so
// every way into the server checks a whole batch here first: Update, and the
// router before it routes one.
func CheckOp(i int, r geom.Rect) error {
	if !r.WellFormed() {
		return &MalformedOpError{Index: i, Rect: r}
	}
	return nil
}

// ShedError is the concrete type behind ErrShed.
type ShedError struct {
	// RetryAfter estimates when enough queued work will have drained for
	// the request to be admitted.
	RetryAfter time.Duration
	// Queued is the number of requests in flight when the request was
	// rejected.
	Queued int
	// EstimatedCost is the cost-model estimate for the rejected request.
	EstimatedCost time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: overloaded, request shed (%d queued, est %v, retry after %v)",
		e.Queued, e.EstimatedCost, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrShed) true for every *ShedError.
func (e *ShedError) Unwrap() error { return ErrShed }
