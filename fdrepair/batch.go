package fdrepair

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/solve"
)

// ErrStreamClosed is returned by Stream.Submit after Close: the stream
// admits no further requests (results of already-submitted requests
// still drain through Results).
var ErrStreamClosed = errors.New("fdrepair: Submit on a closed Stream")

// Request is one unit of batch/stream work: a table, the FD set to
// repair it under, the algorithm to run, and an optional per-request
// cancellation context. A Request with a nil Context inherits the
// solver's base context (WithContext); a non-nil Context replaces it
// for this request, and WithRequestTimeout derives a deadline from
// whichever applies.
type Request struct {
	FDs       *FDSet
	Table     *Table
	Algorithm Algorithm
	Context   context.Context

	// CFDs is the constraint set for AlgoCFDSRepair (FDs is unused).
	CFDs []*ConditionalFD
	// Denial is the constraint set for AlgoDenialSRepair; when empty,
	// the request's FDs are translated via FDsAsDenial.
	Denial []*DenialConstraint
	// Query is the selection–projection query for AlgoCQA.
	Query *CQAQuery
	// Priority is the preference relation for AlgoPriorityRepair; nil
	// means no preferences (insertion order decides ties).
	Priority *PriorityRelation
}

// BatchResult is the outcome of one Request. Exactly one of Table (for
// the S-repair and MPD algorithms) or URepair (for AlgoOptimalURepair)
// is set on success; Err carries the request's own failure — a
// cancelled or failed request never poisons its batch siblings.
type BatchResult struct {
	// Index is the request's position in the SolveBatch input slice (or
	// its Stream submission order), so streamed results can be
	// correlated out of completion order.
	Index int
	// Table is the repair: a consistent subset for the S-repair
	// algorithms, the most probable database for AlgoMostProbable.
	Table *Table
	// Cost is dist_sub for the S-repair algorithms and the subset's
	// probability for AlgoMostProbable; for AlgoOptimalURepair see
	// URepair.Cost.
	Cost float64
	// URepair is the full update-repair outcome for AlgoOptimalURepair.
	URepair *URepairResult
	// Err is the request's error (context.DeadlineExceeded on a missed
	// per-request deadline, srepair.ErrNoSimplification on a hard FD
	// set under AlgoOptimalSRepair, a *PanicError when the request's
	// solve panicked and was isolated, ...).
	Err error
	// Degraded reports that WithApproxFallback kicked in: the exact
	// solve exceeded its budget and Table/Cost carry the polynomial
	// 2-approximation instead.
	Degraded bool
	// CFD carries the full forced-deletion accounting of an
	// AlgoCFDSRepair request (Table and Cost mirror its Repair and
	// TotalCost).
	CFD *CFDResult
	// CQA carries the certain/possible answers of an AlgoCQA request
	// (no Table is produced).
	CQA *CQAAnswers
	// Stats is this request's own counter slice (zero unless the Solver
	// was built WithStats). The solver's aggregate Stats still
	// accumulates every request.
	Stats SolveStats
}

// batchConfig collects per-batch option values.
type batchConfig struct {
	timeout     time.Duration
	approxAfter time.Duration
}

// BatchOption configures SolveBatch and NewStream.
type BatchOption func(*batchConfig)

// WithRequestTimeout gives every request in the batch (or stream) its
// own deadline of d, measured from the moment the request starts
// running: one slow or huge table times out alone while the rest of
// the batch completes. The deadline composes with the request's own
// Context (when set; else with the solver's base context) to the
// earliest deadline: whichever of the two expires first cancels the
// request, in either order.
func WithRequestTimeout(d time.Duration) BatchOption {
	return func(c *batchConfig) { c.timeout = d }
}

// WithApproxFallback bounds AlgoExactSRepair requests with a budget d:
// the exponential exact solve runs under its own deadline of d and, if
// it exceeds it while the request's overall deadline still has room,
// the request degrades to the polynomial 2-approximation
// (AlgoApproxSRepair semantics) instead of failing — BatchResult
// carries the approximate repair with Degraded set. A request whose
// own deadline expired (not just the exact budget) still fails with
// context.DeadlineExceeded. Other algorithms are unaffected.
func WithApproxFallback(d time.Duration) BatchOption {
	return func(c *batchConfig) { c.approxAfter = d }
}

// SolveBatch runs many repair requests on this Solver and returns one
// BatchResult per request, index-aligned with reqs (and with Index set,
// so callers may also sort or merge streamed copies). The requests are
// admitted as tasks on the solver's one work-stealing scheduler —
// alongside the block-level tasks their own recursions spawn — so a
// mixed-size batch keeps every worker busy without over-subscribing
// the budget; on a serial Solver the batch runs sequentially.
//
// Each request executes under its own solve scope: its own deadline
// (WithRequestTimeout or Request.Context), its own stats and its own
// error slot — one cancelled or failed request never poisons the
// others. Results are byte-identical to running each request alone, at
// any worker count. Scratch arenas are shared across the batch (that
// sharing is the point of batching: buffers grown by one request are
// reused by the next).
func (s *Solver) SolveBatch(reqs []Request, opts ...BatchOption) []BatchResult {
	var cfg batchConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	out := make([]BatchResult, len(reqs))
	ran := make([]bool, len(reqs))
	err := s.begin()
	if err == nil {
		defer s.end()
		err = s.ctx.ForEachBlock(len(reqs),
			func(i int) int {
				// A malformed request still sizes as 0 so it reaches
				// runRequest's input check as a per-request error instead
				// of panicking the whole batch here.
				if reqs[i].Table == nil {
					return 0
				}
				return reqs[i].Table.Len()
			},
			func(wc *solve.Ctx, i int) error {
				out[i] = s.runRequest(wc, i, reqs[i], cfg, nil)
				ran[i] = true
				// Per-request isolation: the request's error lives in its
				// BatchResult, never in the batch-level join.
				return nil
			})
	}
	// A closed solver, or a fan-out cut short because the solver's own
	// base context is done, still owes the caller one result per
	// request.
	if err != nil {
		for i := range out {
			if !ran[i] {
				out[i] = BatchResult{Index: i, Err: err}
			}
		}
	}
	return out
}

// runRequest executes one request under a fresh per-request solve
// scope on wc's worker binding, dispatching through the algorithm
// table unless run is set; SolveBatch, Stream and Solve all run
// requests here, and the exact CFD and denial methods pass their own
// run behind the input check of the request's algorithm. A panic
// escaping the request body — whether from a poisoned table, an
// algorithm bug, or an injected failpoint — is recovered here (the
// scheduler additionally recovers panics inside enqueued block tasks)
// and becomes this request's *PanicError; it never unwinds into the
// scheduler, sibling requests, or the daemon serving the batch.
func (s *Solver) runRequest(wc *solve.Ctx, i int, r Request, cfg batchConfig, run runFunc) (res BatchResult) {
	res = BatchResult{Index: i}
	if err := r.check(); err != nil {
		res.Err = err
		return res
	}
	rctx := r.Context
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = withTimeout(wc, rctx, cfg.timeout)
		defer cancel()
	}
	var st *solve.Stats
	if s.stats != nil {
		st = new(solve.Stats)
	}
	defer func() {
		if rec := recover(); rec != nil {
			res.Err = solve.NewPanicError(rec)
			st.Add(solve.Panics, 1)
		}
		if st != nil {
			res.Stats = st.Snapshot()
			s.stats.Merge(res.Stats)
		}
	}()
	c := wc.Scoped(rctx, st)
	switch {
	case run != nil:
		res.Err = run(c, &r, &res)
	case r.Algorithm == AlgoExactSRepair && cfg.approxAfter > 0:
		res.Err = exactWithFallback(c, rctx, st, cfg.approxAfter, &r, &res)
	default:
		res.Err = algorithms[r.Algorithm].run(c, &r, &res)
	}
	return res
}

// withTimeout derives a deadline of d from the request's own context
// rctx or, when it has none, from the solver's base context — the same
// fallback Scoped applies. context.WithTimeout keeps the parent's
// deadline when it is earlier, so the two compose to the earliest
// deadline in either order.
func withTimeout(c *solve.Ctx, rctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if rctx == nil {
		rctx = c.Base()
	}
	if rctx == nil {
		rctx = context.Background()
	}
	return context.WithTimeout(rctx, d)
}

// Stream is the queue form of SolveBatch for serving request traffic:
// Submit enqueues repair requests as they arrive, Results delivers
// each BatchResult as its request completes (completion order, with
// Index recording submission order). In-flight work is bounded by the
// solver's worker budget; beyond it, Submit's goroutines queue behind
// a semaphore, and the inner recursions of running requests share the
// solver's one work-stealing scheduler and arenas exactly like
// SolveBatch. Construct with Solver.NewStream.
//
// The consumer must drain Results; once the channel's buffer (one slot
// per worker) is full, completed requests block their slot until read.
// Submit and Close may be called from any goroutine, concurrently:
// Submit after (or racing) Close fails with ErrStreamClosed instead of
// panicking, so producers never need to coordinate with shutdown.
type Stream struct {
	sv      *Solver
	cfg     batchConfig
	results chan BatchResult
	sem     chan struct{}

	mu     sync.Mutex
	next   int
	closed bool
	wg     sync.WaitGroup
}

// NewStream opens a streaming submission queue over this Solver's
// scheduler and arenas. The same per-request options as SolveBatch
// apply (WithRequestTimeout). Close the stream after the last Submit;
// Results closes once every submitted request has been delivered.
func (s *Solver) NewStream(opts ...BatchOption) *Stream {
	var cfg batchConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	workers := s.Parallelism()
	return &Stream{
		sv:      s,
		cfg:     cfg,
		results: make(chan BatchResult, workers),
		sem:     make(chan struct{}, workers),
	}
}

// Submit enqueues one request and returns its index (submission
// order), which its BatchResult will carry. Submit blocks only while
// the stream's in-flight budget (= the solver's worker budget) is
// exhausted — natural backpressure for a producer outrunning the
// engine; it never waits for its own request to complete.
//
// Submit fails with ErrStreamClosed after Close (it used to panic;
// returning the sentinel lets producers race shutdown safely) and with
// ErrSolverClosed once the stream's Solver has been Closed. A failed
// Submit consumes no index.
func (st *Stream) Submit(r Request) (int, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return 0, ErrStreamClosed
	}
	// Each streamed request counts as one in-flight solve on the
	// Solver, so Solver.Close waits for it like any other.
	if err := st.sv.begin(); err != nil {
		st.mu.Unlock()
		return 0, err
	}
	i := st.next
	st.next++
	st.wg.Add(1)
	st.mu.Unlock()
	st.sem <- struct{}{} // bound in-flight requests
	go func() {
		defer st.wg.Done()
		defer st.sv.end()
		res := st.sv.runRequest(st.sv.ctx, i, r, st.cfg, nil)
		// Deliver before releasing the in-flight slot: a completed
		// request keeps its slot until the consumer reads it (past the
		// channel buffer), so a slow consumer throttles Submit instead
		// of accumulating unread results without bound.
		st.results <- res
		<-st.sem
	}()
	return i, nil
}

// Results returns the delivery channel. It yields one BatchResult per
// submitted request in completion order and closes after Close once
// every in-flight request has been delivered.
func (st *Stream) Results() <-chan BatchResult { return st.results }

// Close marks the stream complete: no further Submits are accepted,
// and Results closes once the in-flight requests drain. Close returns
// immediately; it is safe to call once from any goroutine.
func (st *Stream) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	st.mu.Unlock()
	go func() {
		st.wg.Wait()
		close(st.results)
	}()
}
