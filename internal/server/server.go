package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Op is one staged mutation of the indexed dataset.
type Op struct {
	Rect   geom.Rect
	Data   int32
	Delete bool
}

// Config assembles a Server.
type Config struct {
	// Store is the mutable, pager-backed side of every join (the churn
	// target).  The server takes over commit responsibility; the caller
	// keeps ownership of the pager's lifetime.
	Store *rtree.TreeStore
	// S is the static reference tree queries join the snapshot against.
	S *rtree.Tree
	// Reopen rebuilds the store after a storage fault broke the server:
	// typically by reopening the pager (running WAL recovery) and calling
	// rtree.OpenTreeStore.  Without it, Reopen fails and the broken state
	// is terminal.
	Reopen func() (*rtree.TreeStore, error)

	// BatchCapacity is the insert buffer's round size (staged ops per
	// Hilbert-ordered flush).  0 means 256.
	BatchCapacity int
	// MaxInflight bounds the admission queue: at most this many requests
	// are admitted concurrently; the rest shed.  0 means 64.
	MaxInflight int
	// CostBudget sheds a request when (queued requests + 1) x its
	// cost-model estimate exceeds this much estimated work.  0 means 30s of
	// estimated cost; negative disables cost-based shedding.
	CostBudget time.Duration
	// DefaultDeadline is applied to requests whose context has no deadline.
	// 0 means 10s; negative leaves such requests deadline-free.
	DefaultDeadline time.Duration
	// RetryAttempts is how many times a join hit by a transient storage
	// fault (storage.ErrQuarantined, storage.ErrReadExhausted) is re-run
	// before the server marks itself broken.  0 means 2.
	RetryAttempts int
	// RetryBackoff is the base of the exponential backoff between retry
	// attempts.  0 means 1ms.
	RetryBackoff time.Duration
	// Sleep is the backoff clock, injectable so fault tests run at full
	// speed.  Defaults to a context-aware time.Sleep.
	Sleep func(context.Context, time.Duration)
	// CacheBytes sizes the per-epoch page cache below the counted LRU (page
	// bytes served to trackers without a physical read).  The cache is
	// private to each epoch — COW copies keep their page identifier, so one
	// (tree, node) key names different bytes in different epochs — and is
	// dropped with it.  0 disables caching.
	CacheBytes int

	// stagedCap replaces MaxStagedOps in tests; 0 means MaxStagedOps.
	stagedCap int
}

// MaxStagedOps caps the staged backlog: ops staged since the last round,
// applied to the writer's tree or not.  Update rejects a batch that would
// take the backlog past it (ErrBacklogFull).  It is far above what a round
// of the bench ledger stages (20 000 ops at ingest) and bounds the memory a
// writer that never calls Round can make the server hold.
const MaxStagedOps = 1 << 20

func (c Config) withDefaults() Config {
	if c.BatchCapacity == 0 {
		c.BatchCapacity = 256
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.CostBudget == 0 {
		c.CostBudget = 30 * time.Second
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.stagedCap == 0 {
		c.stagedCap = MaxStagedOps
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}
	return c
}

// JoinRequest is one query: join the current snapshot against S.  Every
// request runs SJ4, the paper's recommended join (section 4.3).
type JoinRequest struct {
	// Workers is ignored: every request runs join.Join, which uses the
	// spare cores itself.  It is kept only for the ledger's call at
	// bench/ladder.go:394; ROADMAP item 8(d) deletes it.
	Workers int
	// Predicate selects the join condition; the zero value is intersection.
	Predicate join.Predicate
	// DiscardPairs suppresses materialising the pairs.
	DiscardPairs bool
	// OnPair, if non-nil, observes the pair stream.
	OnPair func(join.Pair)
}

// JoinResponse carries the join result and the epoch it was computed on.
type JoinResponse struct {
	*join.Result
	// Epoch is the snapshot generation the join ran against; two responses
	// with equal Epoch saw bit-identical trees.
	Epoch uint64
	// Retries is how many transient storage faults were retried away.
	Retries int
}

// RoundStats describes one writer round.
type RoundStats struct {
	Epoch   uint64 // the new epoch's sequence
	Applied int    // ops applied in this round's flush
	Commit  rtree.CommitStats
}

// Stats are the server's monotonic counters (atomic; read with Snapshot).
type Stats struct {
	Admitted      atomic.Int64
	Shed          atomic.Int64
	Done          atomic.Int64
	Cancelled     atomic.Int64
	Deadlined     atomic.Int64
	Failed        atomic.Int64 // broken or unclassified errors
	Retries       atomic.Int64
	Rounds        atomic.Int64
	OpsApplied    atomic.Int64
	EpochsCreated atomic.Int64
	EpochsRetired atomic.Int64
}

// StatsSnapshot is a point-in-time copy of Stats plus derived gauges.
type StatsSnapshot struct {
	Admitted, Shed, Done, Cancelled, Deadlined, Failed int64
	Retries, Rounds, OpsApplied                        int64
	EpochsCreated, EpochsRetired, EpochsLive           int64
	Inflight                                           int64
	Broken                                             bool
}

// Server is the concurrent join service.  Join may be called from any number
// of goroutines; Update, Round, and Reopen follow the single-writer
// discipline and are serialized internally.  The server spawns no background
// goroutines of its own — rounds happen when the owner calls Round — so its
// behaviour under a deterministic driver is deterministic.
type Server struct {
	cfg   Config
	model costmodel.Model

	cur      atomic.Pointer[epoch]
	inflight atomic.Int64
	// closeMu orders Close against Join's registration in wg: a join either
	// sees closed or is counted before Close starts waiting.
	closeMu sync.Mutex
	wg      sync.WaitGroup
	closed  atomic.Bool

	// wmu serializes the writer side: staged ops, rounds, reopen.
	wmu     sync.Mutex
	store   *rtree.TreeStore
	buf     *rtree.InsertBuffer
	applied int // ops applied before the current round's boundary

	// brokenMu guards the sticky broken cause.
	brokenMu sync.Mutex
	//repro:guardedBy brokenMu
	brokenErr error

	stats Stats
}

// New builds a server over an already-bound store and publishes epoch 1 by
// committing the store's current state.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil || cfg.S == nil {
		return nil, fmt.Errorf("server: config needs both Store and S")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, model: costmodel.Default(), store: cfg.Store}
	s.buf = rtree.NewInsertBuffer(cfg.Store.Tree(), cfg.BatchCapacity)
	if _, err := s.round(); err != nil {
		return nil, fmt.Errorf("server: publishing the initial epoch: %w", err)
	}
	return s, nil
}

// Update stages a batch of mutations for the next round.  Staged ops are
// invisible to readers until Round commits and flips the snapshot; the
// insert buffer may apply them to the writer's private tree earlier (in
// Hilbert order, a full batch at a time) without affecting any epoch.  A
// batch with a malformed rectangle is rejected whole, with a
// *MalformedOpError (ErrMalformedOp), before any op is staged, and so is a
// batch that would take the staged backlog past MaxStagedOps
// (ErrBacklogFull).
func (s *Server) Update(ops []Op) error {
	if s.closed.Load() {
		return ErrClosed
	}
	for i, op := range ops {
		if err := CheckOp(i, op.Rect); err != nil {
			return err
		}
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.brokenCause(); err != nil {
		return fmt.Errorf("%w: %w", ErrServerBroken, err)
	}
	if backlog := s.pending(); backlog+len(ops) > s.cfg.stagedCap {
		return fmt.Errorf("%w: %d ops staged, %d more would pass the cap of %d",
			ErrBacklogFull, backlog, len(ops), s.cfg.stagedCap)
	}
	for _, op := range ops {
		if op.Delete {
			s.buf.StageDelete(op.Rect, op.Data)
		} else {
			s.buf.Stage(op.Rect, op.Data)
		}
	}
	return nil
}

// Round is the writer's round boundary: flush the staged batch in Hilbert
// order, commit the tree as one pager transaction, and atomically flip the
// published snapshot.  Any commit failure marks the server broken — the
// store's diff state can no longer be trusted against the disk — and only
// Reopen recovers.
func (s *Server) Round() (RoundStats, error) {
	if s.closed.Load() {
		return RoundStats{}, ErrClosed
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.brokenCause(); err != nil {
		return RoundStats{}, fmt.Errorf("%w: %w", ErrServerBroken, err)
	}
	return s.round()
}

// round does the flush-commit-flip with the writer lock held.
func (s *Server) round() (RoundStats, error) {
	s.buf.Flush()
	applied := s.opsProcessed() - s.applied
	cs, err := s.store.Commit()
	if err != nil {
		s.markBroken(err)
		return RoundStats{}, fmt.Errorf("%w: %w", ErrServerBroken, err)
	}
	s.applied = s.opsProcessed()
	snap := s.store.Tree().Snapshot()
	seq := s.store.Seq()
	var cache *buffer.PageCache
	if s.cfg.CacheBytes > 0 {
		cache = buffer.NewPageCacheForBytes(s.cfg.CacheBytes, snap.PageSize())
	}
	s.flip(newEpoch(seq, snap, s.store.EpochReader(snap), cache))
	s.stats.Rounds.Add(1)
	s.stats.OpsApplied.Add(int64(applied))
	return RoundStats{Epoch: seq, Applied: applied, Commit: cs}, nil
}

// opsProcessed is the total number of staged ops the insert buffer has
// resolved: inserts applied plus deletes applied plus delete misses.
func (s *Server) opsProcessed() int {
	return s.buf.Applied() + s.buf.DeletesApplied() + s.buf.DeleteMisses()
}

// Pending returns the number of mutations waiting for the next round: ops
// still staged in the buffer plus ops already applied to the writer's tree
// but not yet committed.  A driver can use it to skip no-op rounds.
func (s *Server) Pending() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.pending()
}

// pending is Pending with wmu held.
func (s *Server) pending() int {
	return s.buf.Len() + (s.opsProcessed() - s.applied)
}

// Join runs one query against the current epoch.  It either returns the
// join's result — identical to a sequential join over the same snapshot —
// or one of the typed errors: *ShedError (ErrShed) at admission,
// ErrDeadline/join.ErrCancelled for expired or cancelled contexts,
// ErrServerBroken once storage faults exhaust the retry budget, ErrTransient
// for a storage fault after req.OnPair had seen pairs that a later attempt
// found gone, ErrClosed after shutdown.
func (s *Server) Join(ctx context.Context, req JoinRequest) (*JoinResponse, error) {
	if !s.enter() {
		return nil, ErrClosed
	}
	defer s.wg.Done()
	if err := s.brokenCause(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrServerBroken, err)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	pred := req.Predicate
	if err := pred.Validate(); err != nil {
		return nil, err
	}

	e := s.pin()
	defer s.unpin(e)

	est := s.estimate(e, pred)
	if err := s.admit(est); err != nil {
		return nil, err
	}
	defer s.inflight.Add(-1)

	ctx, cancel := s.withDeadline(ctx)
	defer cancel()

	opts := join.Options{
		Method:       join.SJ4,
		Context:      ctx,
		PageReaderR:  e.reader,
		PageCache:    e.cache,
		DiscardPairs: req.DiscardPairs,
		Predicate:    pred,
	}
	// A retry would replay to the observer the pairs the failed attempt
	// already handed it.  Once it has seen one, the remaining attempts run
	// without it, keeping no pairs, only to learn whether the fault persists:
	// if they exhaust the server is broken as after any other join, and if
	// one succeeds the caller gets ErrTransient.
	var observed bool
	var cut error // the fault that ended an observed attempt
	if onPair := req.OnPair; onPair != nil {
		opts.OnPair = func(p join.Pair) {
			observed = true
			onPair(p)
		}
	}
	var retries int
	for attempt := 0; ; attempt++ {
		res, err := join.Join(e.tree, s.cfg.S, opts)
		if err == nil {
			if cut != nil {
				s.stats.Failed.Add(1)
				return nil, fmt.Errorf("%w: %w", ErrTransient, cut)
			}
			s.stats.Done.Add(1)
			return &JoinResponse{Result: res, Epoch: e.seq, Retries: retries}, nil
		}
		switch {
		case errors.Is(err, join.ErrCancelled):
			if errors.Is(err, context.DeadlineExceeded) {
				s.stats.Deadlined.Add(1)
				return nil, fmt.Errorf("%w: %w", ErrDeadline, err)
			}
			s.stats.Cancelled.Add(1)
			return nil, err
		case errors.Is(err, storage.ErrPagerBroken):
			s.markBroken(err)
			s.stats.Failed.Add(1)
			return nil, fmt.Errorf("%w: %w", ErrServerBroken, err)
		case errors.Is(err, storage.ErrQuarantined), errors.Is(err, storage.ErrReadExhausted):
			if observed && cut == nil {
				cut = err
				opts.OnPair, opts.DiscardPairs = nil, true
			}
			if attempt < s.cfg.RetryAttempts {
				retries++
				s.stats.Retries.Add(1)
				s.cfg.Sleep(ctx, s.cfg.RetryBackoff<<uint(attempt))
				if ctx.Err() == nil {
					continue
				}
				s.stats.Deadlined.Add(1)
				return nil, fmt.Errorf("%w: %w", ErrDeadline, ctx.Err())
			}
			s.markBroken(err)
			s.stats.Failed.Add(1)
			return nil, fmt.Errorf("%w: %w", ErrServerBroken, err)
		default:
			s.stats.Failed.Add(1)
			return nil, err
		}
	}
}

// withDeadline gives a context without a deadline the configured default
// one.  The result is always cancellable.
func (s *Server) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && s.cfg.DefaultDeadline > 0 {
		return context.WithTimeout(ctx, s.cfg.DefaultDeadline)
	}
	return context.WithCancel(ctx)
}

// admit applies the load-shedding policy: a request is rejected when the
// queue is at slot capacity or when admitting it would push the outstanding
// estimated work — (queued + 1) x this request's estimate — past the cost
// budget.  Rejection is immediate (open-loop), with a retry hint sized to
// half the outstanding work.
func (s *Server) admit(est costmodel.Estimate) error {
	cost := est.Total()
	for {
		queued := s.inflight.Load()
		overCost := s.cfg.CostBudget > 0 &&
			time.Duration(queued+1)*cost > s.cfg.CostBudget
		if int(queued) >= s.cfg.MaxInflight || overCost {
			s.stats.Shed.Add(1)
			retry := time.Duration(queued) * cost / 2
			if retry < time.Millisecond {
				retry = time.Millisecond
			}
			return &ShedError{RetryAfter: retry, Queued: int(queued), EstimatedCost: cost}
		}
		if s.inflight.CompareAndSwap(queued, queued+1) {
			s.stats.Admitted.Add(1)
			return nil
		}
	}
}

// estimate prices one join from the catalogs alone (no page touched): every
// page of both trees read once plus one comparison per data entry per
// thousand of the other side — a deliberately crude planner estimate whose
// job is relative ordering under load, not accuracy.  The predicate scales
// the comparison term: within-distance inflates it by the area growth of the
// epsilon-expanded R MBR (the filter runs over expanded rectangles, so its
// selectivity grows exactly that way), and kNN replaces the product with one
// near-logarithmic probe of S plus K heap admissions per R item.
func (s *Server) estimate(e *epoch, pred join.Predicate) costmodel.Estimate {
	pages := treePages(e.tree) + treePages(s.cfg.S)
	nR, nS := float64(e.tree.Len()), float64(s.cfg.S.Len())
	var comparisons int64
	switch pred.Kind {
	case join.PredKNN:
		comparisons = int64(nR*(math.Log2(nS+2)+float64(pred.K))) + int64(nR+nS)
	case join.PredWithinDist:
		inflate := 1.0
		if e.tree.Len() > 0 {
			m := e.tree.Root().MBR()
			if a := m.Area(); a > 0 {
				inflate = geom.ExpandRect(m, pred.Epsilon).Area() / a
			}
		}
		comparisons = int64(nR*nS/1000*inflate) + int64(nR+nS)
	default:
		comparisons = int64(nR*nS/1000) + int64(nR+nS)
	}
	return s.model.Estimate(int64(pages), e.tree.PageSize(), comparisons)
}

func treePages(t *rtree.Tree) float64 {
	if cat := t.CatalogStats(); cat.Valid() {
		return cat.SubtreePages(cat.Height - 1)
	}
	// Degenerate or empty tree: charge a single page.
	return 1
}

// Reopen recovers a broken server: the config's Reopen callback rebuilds
// the store (running pager recovery), the page cache is dropped, staged but
// uncommitted ops are discarded — exactly what a crash would have lost —
// and a fresh epoch over the recovered state is published.
func (s *Server) Reopen() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.cfg.Reopen == nil {
		return fmt.Errorf("server: no Reopen callback configured")
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	store, err := s.cfg.Reopen()
	if err != nil {
		return fmt.Errorf("server: reopen: %w", err)
	}
	s.store = store
	s.buf = rtree.NewInsertBuffer(store.Tree(), s.cfg.BatchCapacity)
	s.applied = 0
	s.brokenMu.Lock()
	s.brokenErr = nil
	s.brokenMu.Unlock()
	if _, err := s.round(); err != nil {
		return err
	}
	return nil
}

// enter registers a join with Close.  It fails once Close has begun;
// otherwise Close waits for the join's s.wg.Done.
func (s *Server) enter() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

// Close stops admitting work and waits for in-flight joins to drain.  The
// pager stays open — its lifetime belongs to the caller.
func (s *Server) Close() error {
	s.closeMu.Lock()
	already := s.closed.Swap(true)
	s.closeMu.Unlock()
	if !already {
		s.wg.Wait()
	}
	return nil
}

// Broken reports whether the server is in the sticky broken state.
func (s *Server) Broken() bool { return s.brokenCause() != nil }

func (s *Server) brokenCause() error {
	s.brokenMu.Lock()
	defer s.brokenMu.Unlock()
	return s.brokenErr
}

// markBroken latches the first fault as the sticky cause.
func (s *Server) markBroken(err error) {
	s.brokenMu.Lock()
	defer s.brokenMu.Unlock()
	if s.brokenErr == nil {
		s.brokenErr = err
	}
}

// CurrentEpoch returns the published epoch's sequence number.
func (s *Server) CurrentEpoch() uint64 { return s.cur.Load().seq }

// Coverage summarises what the published snapshot holds: item counts, the
// churned relation's MBR, and both trees' catalog statistics.  It is
// published on GET /stats for operators; no join path reads it.
type Coverage struct {
	// Epoch is the snapshot generation the summary was read from.
	Epoch uint64
	// PageSize is the page size of both trees in bytes.
	PageSize int
	// RItems is the number of rectangles in the churned relation R.
	RItems int
	// RMBR is R's root MBR (zero when R is empty).
	RMBR geom.Rect
	// RCatalog holds the catalog statistics of the epoch's R.
	RCatalog costmodel.Catalog
	// SItems is the number of rectangles in the static relation S.
	SItems int
	// SCatalog holds S's catalog statistics.
	SCatalog costmodel.Catalog
}

// Coverage returns the current epoch's coverage summary.  It pins the epoch
// only while reading the catalogs (the epoch's first read walks its
// snapshot once), so it never blocks a round flip.
func (s *Server) Coverage() Coverage {
	e := s.pin()
	defer s.unpin(e)
	cov := Coverage{
		Epoch:    e.seq,
		PageSize: e.tree.PageSize(),
		RItems:   e.tree.Len(),
		RCatalog: e.tree.CatalogStats(),
		SItems:   s.cfg.S.Len(),
		SCatalog: s.cfg.S.CatalogStats(),
	}
	if e.tree.Len() > 0 {
		cov.RMBR = e.tree.Root().MBR()
	}
	return cov
}

// Cache exposes the current epoch's page cache (nil when disabled).
func (s *Server) Cache() *buffer.PageCache { return s.cur.Load().cache }

// Snapshot returns the server's counters.
func (s *Server) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Admitted:      s.stats.Admitted.Load(),
		Shed:          s.stats.Shed.Load(),
		Done:          s.stats.Done.Load(),
		Cancelled:     s.stats.Cancelled.Load(),
		Deadlined:     s.stats.Deadlined.Load(),
		Failed:        s.stats.Failed.Load(),
		Retries:       s.stats.Retries.Load(),
		Rounds:        s.stats.Rounds.Load(),
		OpsApplied:    s.stats.OpsApplied.Load(),
		EpochsCreated: s.stats.EpochsCreated.Load(),
		EpochsRetired: s.stats.EpochsRetired.Load(),
		EpochsLive:    s.stats.EpochsCreated.Load() - s.stats.EpochsRetired.Load(),
		Inflight:      s.inflight.Load(),
		Broken:        s.Broken(),
	}
}
