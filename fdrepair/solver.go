package fdrepair

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/solve"
)

// ErrSolverClosed is returned by every solve entry point (and by
// Stream.Submit) after Solver.Close: the solver is quiescing or
// quiesced and admits no new work.
var ErrSolverClosed = errors.New("fdrepair: solver is closed")

// PanicError is a panic recovered inside a solve and converted into
// that block's or request's error: it carries the panic value and the
// stack of the panicking goroutine. The scheduler isolates task panics
// (one poisoned table never takes down the shared scheduler), and the
// batch/stream layer isolates request-body panics; aggregate counts
// land in SolveStats.Panics. Detect with errors.As:
//
//	var pe *fdrepair.PanicError
//	if errors.As(res.Err, &pe) { log.Printf("poisoned input: %v", pe.Value) }
type PanicError = solve.PanicError

// SolveStats is a snapshot of a Solver's counters: recursion nodes
// visited by OptSRepair, scheduler task accounting (blocks run inline
// vs executed as enqueued tasks, and how many of those were stolen by
// a worker other than their producer), matcher path dispatches
// (singleton/star fast path, dense Hungarian, sparse
// Jonker–Volgenant), the U-repair planner's per-component decisions,
// and scratch-arena reuse. All fields are cumulative across the
// solver's solves since the last ResetStats; the zero value means
// stats were not enabled.
type SolveStats = solve.Snapshot

// Solver is a per-configuration repair engine: it owns a worker
// budget executed by a work-stealing task scheduler (independent
// blocks at every recursion depth, matching components and planner
// components become stealable tasks; a parent awaiting its blocks
// helps execute pending work instead of parking), scratch arenas
// sharded per scheduler worker over sync.Pool overflow (recycled
// across recursion levels, matching components and sequential solves),
// an optional cancellation
// context and an optional stats record. Construct with NewSolver; the
// zero value is not usable.
//
// A Solver is safe for concurrent use: multiple goroutines may run
// solves on one Solver, and multiple Solvers with different settings
// may run concurrently — no solve state is shared between Solvers, so
// heavy multi-tenant traffic can give every request (or tenant) its
// own budget and deadline. Results are byte-identical to the serial
// engine regardless of parallelism or arena reuse.
//
//	sv := fdrepair.NewSolver(
//		fdrepair.WithParallelism(8),
//		fdrepair.WithContext(ctx),
//		fdrepair.WithStats(),
//	)
//	s, cost, err := sv.OptimalSRepair(ds, t)   // honors ctx's deadline
//	fmt.Printf("%+v\n", sv.Stats())
type Solver struct {
	stats *solve.Stats
	ctx   *solve.Ctx

	// Lifecycle: begin/end bracket every solve (including each batch or
	// stream request); Close flips closed and waits for inflight to
	// drain, after which the scheduler is idle by construction (helper
	// goroutines exit when the deques empty).
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// solverConfig collects option values until NewSolver freezes them
// into the solve context.
type solverConfig struct {
	workers int
	base    context.Context
	stats   bool
}

// SolverOption configures a Solver under construction.
type SolverOption func(*solverConfig)

// WithParallelism sets the solver's worker budget: independent blocks
// of the repair recursion (at every depth), connected components of
// the marriage matching graph, U-repair planner components and batch
// requests (SolveBatch) are solved concurrently by up to n
// work-stealing workers. Values of n ≤ 1 — including 0 and negatives —
// are clamped to 1, meaning serial (the default); Parallelism reports
// the clamped value. Results are identical to the serial algorithm.
func WithParallelism(n int) SolverOption {
	return func(c *solverConfig) { c.workers = n }
}

// WithContext attaches a cancellation context: every solve run on the
// Solver checks it cooperatively at recursion and component
// boundaries and returns ctx.Err() (context.Canceled or
// context.DeadlineExceeded) promptly instead of burning CPU. The
// input table is never mutated by a solve, cancelled or not.
func WithContext(ctx context.Context) SolverOption {
	return func(c *solverConfig) { c.base = ctx }
}

// WithStats enables counter collection; read with Stats, zero with
// ResetStats. Collection costs a few atomic increments per recursion
// node and is off by default.
func WithStats() SolverOption {
	return func(c *solverConfig) { c.stats = true }
}

// NewSolver builds a Solver from the options (defaults: serial,
// non-cancellable, no stats).
func NewSolver(opts ...SolverOption) *Solver {
	cfg := solverConfig{workers: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		// WithParallelism(0) and negative values mean serial, explicitly:
		// the clamp happens here (not buried in the scheduler gate) so
		// Parallelism() reports what the solver actually runs with.
		cfg.workers = 1
	}
	s := &Solver{}
	if cfg.stats {
		s.stats = new(solve.Stats)
	}
	s.ctx = solve.New(cfg.workers, cfg.base, s.stats)
	return s
}

// Parallelism returns the solver's worker budget (1 = serial). The
// value is the clamped budget the solver actually runs with:
// WithParallelism(0) and negative values report 1.
func (s *Solver) Parallelism() int { return s.ctx.Workers() }

// begin admits one solve, failing with ErrSolverClosed once Close has
// been called. Every admitted solve must be paired with end.
func (s *Solver) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSolverClosed
	}
	s.inflight.Add(1)
	return nil
}

// end retires one solve admitted by begin.
func (s *Solver) end() { s.inflight.Done() }

// Close quiesces the solver: new solves (and stream Submits) are
// refused with ErrSolverClosed, and Close blocks until every in-flight
// solve has finished — at which point the work-stealing scheduler is
// idle (its helper goroutines exit when the deques drain, so a
// quiesced Solver holds no goroutines and no queued tasks). In-flight
// solves are not cancelled: pair Close with per-request deadlines (or
// a cancellable WithContext) to bound the drain, and pass a ctx with a
// deadline to bound the wait itself — Close returns ctx.Err() if the
// drain outlives it, with the stragglers still draining in the
// background.
//
// Close is idempotent; concurrent and repeated calls all wait for the
// same drain.
func (s *Solver) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fdrepair: Close: %w", ctx.Err())
	}
}

// Stats returns a snapshot of the solver's counters (zero when
// WithStats was not given).
func (s *Solver) Stats() SolveStats { return s.stats.Snapshot() }

// ResetStats zeroes the solver's counters.
func (s *Solver) ResetStats() { s.stats.Reset() }

// Solve runs one request on the calling goroutine through the
// per-request runner SolveBatch uses — input check, scope, stats and
// panic isolation — but not through the batch fan-out, so it counts no
// extra inline block. The Solver methods and the package-level
// functions are Solve calls on a fixed Algorithm.
func (s *Solver) Solve(r Request) BatchResult {
	if err := s.begin(); err != nil {
		return BatchResult{Err: err}
	}
	defer s.end()
	return s.runRequest(s.ctx, 0, r, batchConfig{})
}

// fdRepair runs an FD-set algorithm that yields a table and its cost.
func (s *Solver) fdRepair(algo Algorithm, ds *FDSet, t *Table) (*Table, float64, error) {
	res := s.Solve(Request{FDs: ds, Table: t, Algorithm: algo})
	return res.Table, res.Cost, res.Err
}

// OptimalSRepair is the Solver-scoped fdrepair.OptimalSRepair: the
// paper's polynomial Algorithm 1 under this solver's budget, arenas,
// cancellation and stats.
func (s *Solver) OptimalSRepair(ds *FDSet, t *Table) (*Table, float64, error) {
	return s.fdRepair(AlgoOptimalSRepair, ds, t)
}

// ExactSRepair is the Solver-scoped fdrepair.ExactSRepair; the
// branch-and-bound cover search honors the solver's deadline, which
// bounds its exponential worst case.
func (s *Solver) ExactSRepair(ds *FDSet, t *Table) (*Table, float64, error) {
	return s.fdRepair(AlgoExactSRepair, ds, t)
}

// ApproxSRepair is the Solver-scoped fdrepair.ApproxSRepair.
func (s *Solver) ApproxSRepair(ds *FDSet, t *Table) (*Table, float64, error) {
	return s.fdRepair(AlgoApproxSRepair, ds, t)
}

// OptimalURepair is the Solver-scoped fdrepair.OptimalURepair: the
// Section-4 planner's inner S-repair solves inherit the solver's
// budget and arenas.
func (s *Solver) OptimalURepair(ds *FDSet, t *Table) (URepairResult, error) {
	res := s.Solve(Request{FDs: ds, Table: t, Algorithm: AlgoOptimalURepair})
	if res.Err != nil {
		return URepairResult{}, res.Err
	}
	return *res.URepair, nil
}

// MostProbableDatabase is the Solver-scoped
// fdrepair.MostProbableDatabase.
func (s *Solver) MostProbableDatabase(ds *FDSet, t *Table) (*Table, float64, error) {
	return s.fdRepair(AlgoMostProbable, ds, t)
}
