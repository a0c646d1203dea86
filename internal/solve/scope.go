// Per-request solve scopes.
//
// A Ctx's state is split along lifetimes:
//
//   - solver-lifetime state stays on shared (solve.go): the worker
//     budget and scheduler, the arena pools (whose buffers deliberately
//     converge on high-water sizes across solves — reusing a big pooled
//     buffer for a small solve is free), and the solver's aggregate
//     stats sink;
//   - per-request state lives on a Scope: the request's cancellation
//     snapshot (context plus predecoded done channel, typically
//     deadline-derived), an optional per-request stats override, and
//     any failpoint poison injected into the request.
//
// Batch entry points call Scoped to give each request its own deadline
// and stats while running all requests as tasks on the one shared
// scheduler; the scheduler threads the scope through its joins and
// tasks, so concurrently interleaved requests keep their own
// cancellation and counters even when their blocks execute on (or are
// stolen by) the same workers.
package solve

import (
	"context"
	"sync/atomic"
)

// Scope is the per-request half of a Ctx: the request's cancellation
// snapshot and an optional stats override. A nil *Scope is valid and
// means "non-cancellable, no stats override".
type Scope struct {
	done  <-chan struct{} // cancellation signal; nil = non-cancellable
	cctx  context.Context // source of done, for Err()
	stats *Stats          // per-request sink; nil = use the solver's

	// failErr is an error injected into the scope out of band — the
	// cancel-mid-recursion failpoint poisons the scope through it. It
	// wins over the context snapshot so a poisoned request fails at the
	// next dispatch/recursion check even without a real deadline.
	failErr atomic.Pointer[error]
}

// newScope builds a scope bound to the given cancellation source and
// optional per-request stats sink.
func newScope(cctx context.Context, stats *Stats) *Scope {
	sc := &Scope{cctx: cctx, stats: stats}
	if cctx != nil {
		sc.done = cctx.Done()
	}
	return sc
}

// err reports the scope's cancellation state (nil receiver = never
// cancelled). The fast path is one atomic load and one channel poll.
func (sc *Scope) err() error {
	if sc == nil {
		return nil
	}
	if p := sc.failErr.Load(); p != nil {
		return *p
	}
	if sc.done == nil {
		return nil
	}
	select {
	case <-sc.done:
		return sc.cctx.Err()
	default:
		return nil
	}
}

// fail injects a terminal error into the scope (first writer wins);
// subsequent err() calls return it. Safe on a nil receiver.
func (sc *Scope) fail(err error) {
	if sc == nil || err == nil {
		return
	}
	sc.failErr.CompareAndSwap(nil, &err)
}

// Base returns the solver-lifetime cancellation source the Ctx was
// built with (nil when non-cancellable). Per-request deadlines derive
// from it when the request brings no context of its own.
func (c *Ctx) Base() context.Context {
	if c == nil || c.s == nil {
		return nil
	}
	return c.s.base
}

// Scoped returns a Ctx for one request: the same solver-lifetime state
// (scheduler, arena pools, aggregate stats) under a fresh scope. cctx
// is the request's cancellation source — nil inherits the solver's base
// context; a non-nil cctx replaces it for this request (combine them
// with context.WithTimeout(base, d) if both must apply). stats, when
// non-nil, receives this request's counters instead of the solver's
// aggregate sink (merge a Snapshot back with Stats.Merge if the
// aggregate should still see them).
func (c *Ctx) Scoped(cctx context.Context, stats *Stats) *Ctx {
	if c == nil || c.s == nil {
		return c
	}
	if cctx == nil {
		cctx = c.s.base
	}
	return &Ctx{s: c.s, sc: newScope(cctx, stats), w: c.w}
}
