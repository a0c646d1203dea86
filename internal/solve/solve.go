// Package solve provides the per-solve execution context threaded
// through every layer of the repair engine: the fdrepair public API,
// the OptSRepair recursion and block fan-out (internal/srepair), the
// U-repair planner (internal/urepair) and MPD (internal/mpd), the
// matching engines (internal/graph) and the view grouping scratch
// (internal/table).
//
// A Ctx bundles what used to be process-wide state into one per-solve
// value:
//
//   - the worker budget, executed by a work-stealing task scheduler
//     (sched.go): independent blocks at every recursion depth become
//     tasks on per-worker deques, popped LIFO by their producer and
//     stolen FIFO by idle workers, and a parent awaiting its blocks
//     helps execute pending tasks instead of parking;
//   - scratch arenas recycled across recursion levels and matching
//     components: a private per-worker shard first (so steals do not
//     bounce hot buffers across caches), sync.Pool overflow behind it;
//   - cooperative cancellation: an optional context.Context checked at
//     task dispatch, recursion and component boundaries, so a
//     deadline-exceeded solve returns promptly instead of burning CPU;
//   - an optional Stats record (recursion nodes, tasks inline /
//     executed / stolen, matcher path hits, U-repair planner
//     decisions, arena reuse).
//
// The package depends only on the standard library so every internal
// package can import it without cycles. All Ctx methods are safe on a
// nil receiver, degrading to serial, arena-less, non-cancellable
// execution.
package solve

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Ctx is the per-solve context. The zero value is not useful; construct
// with New (or use Default for the process-default serial context).
// A single Ctx may be shared by many goroutines and many sequential
// solves: the shared state is concurrency-safe and arena reuse improves
// the more solves share it.
//
// A Ctx value is three words: the solver-lifetime shared state, the
// per-request scope (scope.go: cancellation snapshot, optional stats
// override), plus an optional binding to the scheduler worker
// executing the current task. ForEachBlock hands every block a
// worker-bound Ctx carrying the block's scope, so the arena getters
// below transparently hit the executing worker's private shard and
// cancellation and stats stay those of the block's own request; code
// simply threads whatever *Ctx it was given.
type Ctx struct {
	s  *shared
	sc *Scope
	w  *worker
}

// shared is the solver-lifetime state common to every scope and worker
// binding of one Ctx: the worker budget and scheduler, the arena pools
// (which deliberately converge on high-water sizes across solves) and
// the aggregate stats sink. Per-request state lives on Scope.
type shared struct {
	workers int
	sched   *sched // non-nil exactly when workers > 1

	base context.Context // solver-lifetime cancellation source; scopes inherit it

	stats *Stats // aggregate sink; nil = not collected

	// Shared arena overflow: typed pools plus keyed pools for composite
	// per-package scratch structs. The per-worker shards in front of
	// these live on the scheduler workers (sched.go).
	int32s sync.Pool
	slices sync.Pool
	f64s   sync.Pool
	keyed  sync.Map // any (key) -> *sync.Pool
}

// New builds a context with the given worker budget (n ≤ 1 clamps to
// serial), cancellation source (nil means non-cancellable) and stats
// sink (nil means stats are not collected). The returned Ctx carries a
// root scope bound to cctx; batch layers derive per-request scopes
// with Scoped.
func New(workers int, cctx context.Context, stats *Stats) *Ctx {
	sh := &shared{workers: 1, base: cctx, stats: stats}
	if workers > 1 {
		sh.workers = workers
		sh.sched = newSched(sh, workers)
	}
	return &Ctx{s: sh, sc: newScope(cctx, nil)}
}

// Workers returns the configured worker budget (1 = serial).
func (c *Ctx) Workers() int {
	if c == nil || c.s == nil || c.s.workers < 1 {
		return 1
	}
	return c.s.workers
}

// Stats returns the stats sink receiving this Ctx's counters — the
// scope's per-request override when one is set, the solver's aggregate
// sink otherwise — or nil when stats are not collected.
func (c *Ctx) Stats() *Stats {
	if c == nil || c.s == nil {
		return nil
	}
	if c.sc != nil && c.sc.stats != nil {
		return c.sc.stats
	}
	return c.s.stats
}

// Err reports the cancellation state of the current scope: nil while
// the solve may proceed, context.Canceled or context.DeadlineExceeded
// once the request's context is done. The algorithms call it at task
// dispatch, recursion and component boundaries; the fast path is one
// channel poll.
func (c *Ctx) Err() error {
	if c == nil {
		return nil
	}
	return c.sc.err()
}

// defaultCtx is the process-default context: serial, non-cancellable,
// no stats, and never reconfigured.
var defaultCtx = New(1, nil, nil)

// Default returns the process-default context used by the ctx-less
// convenience wrappers (srepair.OptSRepair, urepair.Repair, ...) and
// by fdrepair's package-level functions.
func Default() *Ctx { return defaultCtx }

// ---- Scratch arenas ----
//
// The arena has two tiers. In front: a private shard on the scheduler
// worker executing the current task (wArena in sched.go) — single-
// goroutine, lock-free, so the hot buffers of a worker stay in that
// worker's cache even when the tasks themselves are stolen. Behind it:
// sync.Pools on the shared state, one per caller-chosen key (typed
// getters below use private keys; packages with composite scratch
// structs bring their own). Objects recycle across recursion levels,
// matching components and sequential solves sharing the Ctx.

// GetScratch returns an object previously stored under key, or nil
// when the arena has none (the caller then allocates). Hits and misses
// are counted in Stats. Intended for composite per-package scratch
// structs (one Get/Put per solve unit); the typed slice pools below
// are cheaper for raw slices.
func (c *Ctx) GetScratch(key any) any {
	if c == nil {
		return nil
	}
	if c.w != nil {
		if v := c.w.ar.getKeyed(key); v != nil {
			c.Stats().arena(true)
			return v
		}
	}
	if p, ok := c.s.keyed.Load(key); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			c.Stats().arena(true)
			return v
		}
	}
	c.Stats().arena(false)
	return nil
}

// PutScratch recycles an object under key for a later GetScratch.
func (c *Ctx) PutScratch(key any, v any) {
	if c == nil {
		return
	}
	if c.w != nil && c.w.ar.putKeyed(key, v) {
		return
	}
	p, ok := c.s.keyed.Load(key)
	if !ok {
		p, _ = c.s.keyed.LoadOrStore(key, &sync.Pool{})
	}
	p.(*sync.Pool).Put(v)
}

// ceilPow2 rounds capacities up so recycled slices fit a range of
// request sizes instead of only their exact birth length.
func ceilPow2(n int) int {
	if n <= 8 {
		return 8
	}
	return 1 << bits.Len(uint(n-1))
}

// Grow returns a slice of length n over s's storage, allocating (with
// power-of-two capacity, so pooled buffers converge on a high-water
// size instead of churning) when s is too small. Contents are
// arbitrary; the caller initializes what it reads. The shared helper
// for fields of pooled scratch structs.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, ceilPow2(n))
	}
	return s[:n]
}

// Int32s returns a []int32 of length n with arbitrary contents, from
// the arena when possible. Release with PutInt32s.
func (c *Ctx) Int32s(n int) []int32 {
	if c != nil {
		if c.w != nil {
			if s, ok := c.w.ar.getInt32s(n); ok {
				c.Stats().arena(true)
				return s[:n]
			}
		}
		if v := c.s.int32s.Get(); v != nil {
			s := *v.(*[]int32)
			if cap(s) >= n {
				c.Stats().arena(true)
				return s[:n]
			}
			// Too small: drop it. Re-putting would park it in the
			// per-P private slot, shadowing larger pooled buffers for
			// every later request on this P — churning small buffers
			// is cheaper than persistently missing on the big ones.
		}
		c.Stats().arena(false)
	}
	return make([]int32, n, ceilPow2(n))
}

// PutInt32s recycles a slice obtained from Int32s. The caller must not
// use the slice afterwards.
func (c *Ctx) PutInt32s(s []int32) {
	if c == nil || cap(s) == 0 {
		return
	}
	s = s[:0]
	if c.w != nil && c.w.ar.putInt32s(s) {
		return
	}
	c.s.int32s.Put(&s)
}

// Int32Slices returns a [][]int32 of length n with nil entries, from
// the arena when possible. Release with PutInt32Slices.
func (c *Ctx) Int32Slices(n int) [][]int32 {
	if c != nil {
		if c.w != nil {
			if s, ok := c.w.ar.getSlices(n); ok {
				c.Stats().arena(true)
				return s[:n]
			}
		}
		if v := c.s.slices.Get(); v != nil {
			s := *v.(*[][]int32)
			if cap(s) >= n {
				c.Stats().arena(true)
				// Entries were nilled by PutInt32Slices.
				return s[:n]
			}
			// Too small: drop (see Int32s).
		}
		c.Stats().arena(false)
	}
	return make([][]int32, n, ceilPow2(n))
}

// PutInt32Slices recycles a slice obtained from Int32Slices. The used
// region is nilled here (not on Get) so a parked pool object never
// pins the row-index arrays of a finished solve: every user clears its
// own [0:len) on Put and the tail beyond it is nil by induction (the
// larger earlier user cleared it on its Put, and fresh allocations
// start zeroed), so the whole backing array is reference-free whenever
// it sits in the pool.
func (c *Ctx) PutInt32Slices(s [][]int32) {
	if c == nil || cap(s) == 0 {
		return
	}
	for i := range s {
		s[i] = nil
	}
	s = s[:0]
	if c.w != nil && c.w.ar.putSlices(s) {
		return
	}
	c.s.slices.Put(&s)
}

// Float64s returns a []float64 of length n with arbitrary contents,
// from the arena when possible. Release with PutFloat64s.
func (c *Ctx) Float64s(n int) []float64 {
	if c != nil {
		if c.w != nil {
			if s, ok := c.w.ar.getFloat64s(n); ok {
				c.Stats().arena(true)
				return s[:n]
			}
		}
		if v := c.s.f64s.Get(); v != nil {
			s := *v.(*[]float64)
			if cap(s) >= n {
				c.Stats().arena(true)
				return s[:n]
			}
			// Too small: drop (see Int32s).
		}
		c.Stats().arena(false)
	}
	return make([]float64, n, ceilPow2(n))
}

// PutFloat64s recycles a slice obtained from Float64s.
func (c *Ctx) PutFloat64s(s []float64) {
	if c == nil || cap(s) == 0 {
		return
	}
	s = s[:0]
	if c.w != nil && c.w.ar.putFloat64s(s) {
		return
	}
	c.s.f64s.Put(&s)
}

// ---- Stats ----

// Stats accumulates solve counters. All fields are atomic so one Stats
// may sink many concurrent solves (per-Solver aggregation); read a
// consistent copy with Snapshot. A nil *Stats is a valid "don't
// collect" sink for every method.
type Stats struct {
	// Nodes counts recursion nodes visited by OptSRepair.
	Nodes atomic.Int64
	// BlocksSerial counts sibling blocks (and matching components, and
	// planner components) run inline — on the serial path, below the
	// task-size threshold, or when the scheduler was saturated.
	// BlocksParallel counts blocks enqueued as scheduler tasks and
	// executed from a deque (by any worker). Steals counts the subset
	// of those executed by a worker other than their producer, i.e.
	// FIFO steals across the task graph; Steals ≤ BlocksParallel.
	BlocksSerial   atomic.Int64
	BlocksParallel atomic.Int64
	Steals         atomic.Int64
	// TasksInlined counts blocks the scheduler chose to run inline
	// because they fell below the task-size threshold
	// (MinParallelBlock) — the granularity decision, as opposed to
	// BlocksSerial which also counts serial-context and saturation
	// fallbacks. Counted only when a scheduler was available to enqueue
	// on; TasksInlined ≤ BlocksSerial.
	TasksInlined atomic.Int64
	// Matcher path counters: singleton/star fast paths, dense Hungarian
	// fallbacks, and sparse Jonker–Volgenant component solves.
	MatcherFastPath atomic.Int64
	MatcherDense    atomic.Int64
	MatcherSparse   atomic.Int64
	// U-repair planner decisions: components seen, which subroutine won
	// each (trivial / key-swap / common-lhs via OptSRepair / combined
	// approximation), whether consensus elimination changed cells, and
	// the largest component's FD count.
	PlannerComponents atomic.Int64
	PlannerTrivial    atomic.Int64
	PlannerKeySwap    atomic.Int64
	PlannerCommonLHS  atomic.Int64
	PlannerApprox     atomic.Int64
	PlannerConsensus  atomic.Int64
	PlannerMaxCompFDs atomic.Int64
	// Constraint-extension counters, one per class ported onto the
	// solver core: CFDPatterns counts pattern tableaux evaluated against
	// the encoded table, DenialPredicates counts compiled denial atoms
	// (per constraint per solve), CQACertain counts certain answers
	// established by the per-component factorization, and PriorityLevels
	// counts the conflict strata (components) admitted independently by
	// the prioritized greedy.
	CFDPatterns      atomic.Int64
	DenialPredicates atomic.Int64
	CQACertain       atomic.Int64
	PriorityLevels   atomic.Int64
	// ArenaHits / ArenaMisses count scratch requests served from the
	// arena vs freshly allocated.
	ArenaHits   atomic.Int64
	ArenaMisses atomic.Int64
	// Panics counts panics recovered at block-dispatch and request
	// boundaries (panic isolation): each one failed a single block or
	// request instead of the process.
	Panics atomic.Int64
}

func (s *Stats) arena(hit bool) {
	if s == nil {
		return
	}
	if hit {
		s.ArenaHits.Add(1)
	} else {
		s.ArenaMisses.Add(1)
	}
}

// Node counts one recursion node.
func (s *Stats) Node() {
	if s != nil {
		s.Nodes.Add(1)
	}
}

// MatcherPath counts one component solved by the named matcher path.
func (s *Stats) MatcherPath(kind MatcherKind) {
	if s == nil {
		return
	}
	switch kind {
	case MatcherFast:
		s.MatcherFastPath.Add(1)
	case MatcherDensePath:
		s.MatcherDense.Add(1)
	case MatcherSparsePath:
		s.MatcherSparse.Add(1)
	}
}

// MatcherKind names the component fast paths of the sparse matcher.
type MatcherKind int

const (
	MatcherFast MatcherKind = iota // singleton edge or one-sided star
	MatcherDensePath
	MatcherSparsePath
)

// PlannerPath names the subroutine that won a U-repair planner
// component.
type PlannerPath int

const (
	PlannerPathTrivial PlannerPath = iota
	PlannerPathKeySwap
	PlannerPathCommonLHS
	PlannerPathApprox
)

// Planner counts one planner component solved by the named path; fds
// is the component's FD count (the largest seen is retained).
func (s *Stats) Planner(kind PlannerPath, fds int) {
	if s == nil {
		return
	}
	s.PlannerComponents.Add(1)
	switch kind {
	case PlannerPathTrivial:
		s.PlannerTrivial.Add(1)
	case PlannerPathKeySwap:
		s.PlannerKeySwap.Add(1)
	case PlannerPathCommonLHS:
		s.PlannerCommonLHS.Add(1)
	case PlannerPathApprox:
		s.PlannerApprox.Add(1)
	}
	atomicMax(&s.PlannerMaxCompFDs, int64(fds))
}

// atomicMax raises a to v when v is larger (the high-water counters).
func atomicMax(a *atomic.Int64, v int64) {
	if v <= 0 {
		return
	}
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// PlannerConsensusApplied counts one consensus-elimination phase that
// changed cells.
func (s *Stats) PlannerConsensusApplied() {
	if s != nil {
		s.PlannerConsensus.Add(1)
	}
}

// CFDPattern counts n pattern tableaux evaluated by the CFD engine.
func (s *Stats) CFDPattern(n int) {
	if s != nil {
		s.CFDPatterns.Add(int64(n))
	}
}

// DenialPredicate counts n compiled denial atoms.
func (s *Stats) DenialPredicate(n int) {
	if s != nil {
		s.DenialPredicates.Add(int64(n))
	}
}

// CQACertainAnswers counts n certain answers established.
func (s *Stats) CQACertainAnswers(n int) {
	if s != nil {
		s.CQACertain.Add(int64(n))
	}
}

// PriorityLevel counts n conflict strata admitted by the prioritized
// greedy.
func (s *Stats) PriorityLevel(n int) {
	if s != nil {
		s.PriorityLevels.Add(int64(n))
	}
}

// Snapshot is a plain-value copy of Stats, JSON-taggable for bench
// snapshots and reports.
type Snapshot struct {
	Nodes int64 `json:"nodes"`
	// Task scheduler: blocks run inline, executed as enqueued tasks,
	// and (of those) stolen by a non-producer worker.
	BlocksSerial   int64 `json:"blocks_serial"`
	BlocksParallel int64 `json:"blocks_parallel"`
	Steals         int64 `json:"task_steals"`
	TasksInlined   int64 `json:"tasks_inlined"`
	// Matcher dispatch paths.
	MatcherFastPath int64 `json:"matcher_fast_path"`
	MatcherDense    int64 `json:"matcher_dense"`
	MatcherSparse   int64 `json:"matcher_sparse"`
	// U-repair planner decisions.
	PlannerComponents int64 `json:"planner_components"`
	PlannerTrivial    int64 `json:"planner_trivial"`
	PlannerKeySwap    int64 `json:"planner_key_swap"`
	PlannerCommonLHS  int64 `json:"planner_common_lhs"`
	PlannerApprox     int64 `json:"planner_approx"`
	PlannerConsensus  int64 `json:"planner_consensus"`
	PlannerMaxCompFDs int64 `json:"planner_max_component_fds"`
	// Constraint-extension engines.
	CFDPatterns      int64 `json:"cfd_patterns"`
	DenialPredicates int64 `json:"denial_predicates"`
	CQACertain       int64 `json:"cqa_certain"`
	PriorityLevels   int64 `json:"priority_levels"`
	// Arena reuse.
	ArenaHits   int64 `json:"arena_hits"`
	ArenaMisses int64 `json:"arena_misses"`
	// Panics recovered and converted into per-block/per-request errors.
	Panics int64 `json:"panics"`
}

// Snapshot returns a consistent-enough copy of the counters (each
// counter is read atomically; the set is not a single atomic cut,
// which is fine for reporting).
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		Nodes:             s.Nodes.Load(),
		BlocksSerial:      s.BlocksSerial.Load(),
		BlocksParallel:    s.BlocksParallel.Load(),
		Steals:            s.Steals.Load(),
		TasksInlined:      s.TasksInlined.Load(),
		MatcherFastPath:   s.MatcherFastPath.Load(),
		MatcherDense:      s.MatcherDense.Load(),
		MatcherSparse:     s.MatcherSparse.Load(),
		PlannerComponents: s.PlannerComponents.Load(),
		PlannerTrivial:    s.PlannerTrivial.Load(),
		PlannerKeySwap:    s.PlannerKeySwap.Load(),
		PlannerCommonLHS:  s.PlannerCommonLHS.Load(),
		PlannerApprox:     s.PlannerApprox.Load(),
		PlannerConsensus:  s.PlannerConsensus.Load(),
		PlannerMaxCompFDs: s.PlannerMaxCompFDs.Load(),
		CFDPatterns:       s.CFDPatterns.Load(),
		DenialPredicates:  s.DenialPredicates.Load(),
		CQACertain:        s.CQACertain.Load(),
		PriorityLevels:    s.PriorityLevels.Load(),
		ArenaHits:         s.ArenaHits.Load(),
		ArenaMisses:       s.ArenaMisses.Load(),
		Panics:            s.Panics.Load(),
	}
}

// Merge accumulates a snapshot into s (sum per counter, max for the
// high-water PlannerMaxCompFDs). The batch layer collects each request
// into its own Stats and merges the snapshot into the solver's
// aggregate sink, so per-request slices and the cumulative Solver view
// stay consistent without double-counting on the hot path.
func (s *Stats) Merge(o Snapshot) {
	if s == nil {
		return
	}
	s.Nodes.Add(o.Nodes)
	s.BlocksSerial.Add(o.BlocksSerial)
	s.BlocksParallel.Add(o.BlocksParallel)
	s.Steals.Add(o.Steals)
	s.TasksInlined.Add(o.TasksInlined)
	s.MatcherFastPath.Add(o.MatcherFastPath)
	s.MatcherDense.Add(o.MatcherDense)
	s.MatcherSparse.Add(o.MatcherSparse)
	s.PlannerComponents.Add(o.PlannerComponents)
	s.PlannerTrivial.Add(o.PlannerTrivial)
	s.PlannerKeySwap.Add(o.PlannerKeySwap)
	s.PlannerCommonLHS.Add(o.PlannerCommonLHS)
	s.PlannerApprox.Add(o.PlannerApprox)
	s.PlannerConsensus.Add(o.PlannerConsensus)
	atomicMax(&s.PlannerMaxCompFDs, o.PlannerMaxCompFDs)
	s.CFDPatterns.Add(o.CFDPatterns)
	s.DenialPredicates.Add(o.DenialPredicates)
	s.CQACertain.Add(o.CQACertain)
	s.PriorityLevels.Add(o.PriorityLevels)
	s.ArenaHits.Add(o.ArenaHits)
	s.ArenaMisses.Add(o.ArenaMisses)
	s.Panics.Add(o.Panics)
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	s.Nodes.Store(0)
	s.BlocksSerial.Store(0)
	s.BlocksParallel.Store(0)
	s.Steals.Store(0)
	s.TasksInlined.Store(0)
	s.MatcherFastPath.Store(0)
	s.MatcherDense.Store(0)
	s.MatcherSparse.Store(0)
	s.PlannerComponents.Store(0)
	s.PlannerTrivial.Store(0)
	s.PlannerKeySwap.Store(0)
	s.PlannerCommonLHS.Store(0)
	s.PlannerApprox.Store(0)
	s.PlannerConsensus.Store(0)
	s.PlannerMaxCompFDs.Store(0)
	s.CFDPatterns.Store(0)
	s.DenialPredicates.Store(0)
	s.CQACertain.Store(0)
	s.PriorityLevels.Store(0)
	s.ArenaHits.Store(0)
	s.ArenaMisses.Store(0)
	s.Panics.Store(0)
}
