package join

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCancelled marks a join abandoned because its context was cancelled or
// its deadline expired.  The returned error wraps the context's cause, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) distinguish the two.
var ErrCancelled = errors.New("join: cancelled")

// cancelErr builds the typed error Join returns for an
// aborted run.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
}

// cancelWatch mirrors a context's Done signal into an atomic flag the join
// traversals can poll at node-pair granularity.  Polling ctx.Err() directly
// would take the context's mutex on every node pair; one goroutine watching
// Done and a single atomic load per pair keeps the cancellation check off
// the join's critical path.  The watcher exits when stop is called, so a
// completed join never leaks it.
type cancelWatch struct {
	flag atomic.Bool
	quit chan struct{}
}

// newCancelWatch starts a watcher for ctx; it returns nil (a no-op watch)
// for a nil context or one that can never be cancelled.
func newCancelWatch(ctx context.Context) *cancelWatch {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	w := &cancelWatch{quit: make(chan struct{})}
	go func() {
		select {
		case <-ctx.Done():
			w.flag.Store(true)
		case <-w.quit:
		}
	}()
	return w
}

// cancelled reports whether the watched context fired.
func (w *cancelWatch) cancelled() bool { return w != nil && w.flag.Load() }

// stop releases the watcher goroutine.  Safe on a nil watch.
func (w *cancelWatch) stop() {
	if w != nil {
		close(w.quit)
	}
}
