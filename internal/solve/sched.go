// Work-stealing task scheduler.
//
// The repair engine is a tree of independent subproblems: OptSRepair
// blocks at every recursion depth, marriage-matching connected
// components, U-repair planner components. The scheduler turns every
// fan-out into tasks on per-worker deques instead of recurse-then-join
// calls:
//
//   - each worker owns a bounded deque; the producer pushes and pops at
//     the bottom (LIFO, depth-first: a freshly pushed block's data is
//     still hot), idle workers steal from the top (FIFO, breadth-first:
//     a stolen task is the oldest and therefore the largest pending
//     subtree, amortizing the steal);
//   - a parent awaiting its blocks never parks while work is pending —
//     it pops its own deque, then scans the other deques, and only
//     sleeps when every deque is empty, woken again by the next push.
//     Nested recursion therefore cannot deadlock on the worker budget
//     and cannot idle a worker the way the old try-acquire pool did
//     (a worker acquired high in the tree used to park in wg.Wait while
//     the subtree below it ran serially);
//   - helper goroutines are spawned on demand, one per free worker
//     slot while tasks are queued, and exit when the deques drain, so
//     an idle Ctx holds no goroutines and needs no Close;
//   - cancellation is checked at dispatch — a cancelled solve drains
//     its queue without running the block bodies — and the dispatcher
//     feeds the inline/executed/stolen counters of Stats.
//
// Determinism: block results are joined by block index, so execution
// order (and who executes what) never changes a solve's result; every
// caller is byte-identical to the serial engine.
package solve

import (
	"sync"
	"sync/atomic"
)

// MinParallelBlock gates task creation in ForEachBlock: blocks below
// this size (rows, edges, ...) finish faster than the enqueue/steal
// round-trip costs, so they always run inline.
const MinParallelBlock = 96

// dequeCap bounds each worker deque (must be a power of two). A full
// deque makes the producer run the block inline, so the bound only
// caps memory and steal-scan cost, never correctness.
const dequeCap = 256

// task is one enqueued block: the join it belongs to and its block
// index (the join's fn closure carries everything else).
type task struct {
	j *join
	i int32
}

// join tracks one ForEachBlock fan-out: the block function, the
// per-index error slots, the producing request's scope and stats sink,
// and the count of blocks not yet finished. done closes when pending
// reaches zero; the atomic decrement orders every task's writes before
// the parent's reads.
//
// The scope rides the join (not the worker) because one scheduler
// serves every request of a Solver concurrently: tasks from different
// batch requests interleave on the same deques, and each must be
// dispatched under — and report its counters to — its own request's
// scope, whichever worker ends up executing or stealing it.
type join struct {
	fn      func(*Ctx, int) error
	errs    []error
	sc      *Scope
	stats   *Stats
	pending atomic.Int32
	done    chan struct{}
}

// finish retires k blocks (or the producer's guard).
func (j *join) finish(k int32) {
	if j.pending.Add(-k) == 0 {
		close(j.done)
	}
}

// deque is a bounded work-stealing deque. A mutex per operation is
// cheap at task granularity (every task is a ≥MinParallelBlock block);
// the LIFO/FIFO discipline, not lock-freedom, is what the scheduler's
// behavior comes from.
type deque struct {
	mu         sync.Mutex
	head, tail uint32 // monotonic; size = tail - head
	buf        [dequeCap]task
}

// push appends at the bottom (producer side); false when full.
func (d *deque) push(t task) bool {
	d.mu.Lock()
	if d.tail-d.head == dequeCap {
		d.mu.Unlock()
		return false
	}
	d.buf[d.tail&(dequeCap-1)] = t
	d.tail++
	d.mu.Unlock()
	return true
}

// pop removes the most recently pushed task (producer side, LIFO).
func (d *deque) pop() (task, bool) {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return task{}, false
	}
	d.tail--
	i := d.tail & (dequeCap - 1)
	t := d.buf[i]
	d.buf[i] = task{}
	d.mu.Unlock()
	return t, true
}

// steal removes the oldest task (thief side, FIFO).
func (d *deque) steal() (task, bool) {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return task{}, false
	}
	i := d.head & (dequeCap - 1)
	t := d.buf[i]
	d.buf[i] = task{}
	d.head++
	d.mu.Unlock()
	return t, true
}

// worker is one scheduler slot: a deque, a worker-bound Ctx handed to
// the tasks it executes, and a private arena shard. A worker is owned
// by exactly one goroutine at a time (ownership passes through the
// free channel, which orders shard accesses), so the shard needs no
// locks.
type worker struct {
	id   int32
	sh   *shared
	dq   deque
	bctx Ctx // = Ctx{s: sh, w: this}; tasks receive &w.bctx
	ar   wArena
}

// sched is the per-Ctx work-stealing scheduler.
type sched struct {
	sh      *shared
	workers []*worker
	free    chan int32 // free worker slot ids
	queued  atomic.Int64
	wake    chan struct{} // capacity 1: pokes parked parents
}

func newSched(sh *shared, n int) *sched {
	s := &sched{
		sh:   sh,
		free: make(chan int32, n),
		wake: make(chan struct{}, 1),
	}
	s.workers = make([]*worker, n)
	for i := range s.workers {
		w := &worker{id: int32(i), sh: sh}
		w.bctx = Ctx{s: sh, w: w}
		s.workers[i] = w
		s.free <- int32(i)
	}
	return s
}

// tryAcquire takes a free worker slot without blocking.
func (s *sched) tryAcquire() *worker {
	select {
	case id := <-s.free:
		return s.workers[id]
	default:
		return nil
	}
}

func (s *sched) release(w *worker) { s.free <- w.id }

// poke wakes one parked parent (no-op when a wakeup is already
// pending). Parents re-poke while work remains queued, chaining the
// wakeup to every parked worker that can help.
func (s *sched) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// signal announces freshly queued work: wake a parked parent and, if a
// worker slot is idle, spawn a helper onto it.
func (s *sched) signal() {
	s.poke()
	if s.queued.Load() > 0 {
		if w := s.tryAcquire(); w != nil {
			go s.helper(w)
		}
	}
}

// helper drains tasks until the deques are empty, then releases its
// slot and exits — the scheduler holds no goroutines at idle.
func (s *sched) helper(w *worker) {
	for {
		t, ok := s.findTask(w)
		if !ok {
			s.release(w)
			// A task pushed between the final scan and the release saw
			// no free slot to spawn into; re-signal on its behalf.
			if s.queued.Load() > 0 {
				s.signal()
			}
			return
		}
		s.run(w, t)
	}
}

// findTask pops the worker's own deque (LIFO) and otherwise steals
// from the other workers (FIFO), scanning round-robin from the
// worker's right-hand neighbor.
func (s *sched) findTask(w *worker) (task, bool) {
	if t, ok := w.dq.pop(); ok {
		s.queued.Add(-1)
		return t, true
	}
	n := len(s.workers)
	for off := 1; off < n; off++ {
		v := s.workers[(int(w.id)+off)%n]
		if t, ok := v.dq.steal(); ok {
			s.queued.Add(-1)
			t.j.stats.Add(Steals, 1)
			return t, true
		}
	}
	return task{}, false
}

// run executes one dispatched task on w under the task's own scope: the
// worker's bound Ctx is re-pointed at the join's scope for the duration
// of the body (and restored afterwards, so a parent that helped on a
// foreign request's task resumes under its own scope). A cancelled
// request records its context error without running the block body, so
// its queued work drains promptly after the deadline — without
// poisoning tasks of other requests sharing the scheduler.
func (s *sched) run(w *worker, t task) {
	prev := w.bctx.sc
	w.bctx.sc = t.j.sc
	err := t.j.sc.err()
	if err == nil {
		err = runBlock(&w.bctx, t.j.fn, int(t.i))
	}
	w.bctx.sc = prev
	if err != nil {
		t.j.errs[t.i] = err
	}
	t.j.stats.Add(BlocksParallel, 1)
	t.j.finish(1)
}

// helpUntil runs the blocked-parent protocol: while j has unfinished
// blocks, execute pending tasks (own deque first, then steals — they
// may belong to any join, which is exactly what keeps deep nested
// fan-outs saturated); park only when every deque is empty, woken by
// the next push or by j completing.
func (s *sched) helpUntil(w *worker, j *join) {
	for {
		if j.pending.Load() == 0 {
			return
		}
		if t, ok := s.findTask(w); ok {
			s.run(w, t)
			continue
		}
		if j.pending.Load() == 0 {
			return
		}
		select {
		case <-j.done:
			return
		case <-s.wake:
			// Pass the wakeup on if there is still queued work (we may
			// have raced another parent for it, or our join may finish
			// before we reach it).
			if s.queued.Load() > 0 {
				s.poke()
			}
		}
	}
}

// ForEachBlock runs fn(_, 0..n-1) and joins the results by block
// index. Blocks of at least MinParallelBlock units (per the size
// callback) become tasks on the work-stealing scheduler; smaller
// blocks, serial contexts and saturated budgets run inline. fn
// receives the executing worker's bound Ctx — thread it into the
// block's recursion so nested fan-outs enqueue on that worker's deque
// and scratch comes from its arena shard.
//
// Error semantics match the serial algorithm: the returned error is
// the first (by block index) failure; the serial path stops there,
// while the scheduled path drains every block before reporting. A
// cancelled Ctx fails fast before any block runs, and tasks dispatched
// after cancellation are not executed.
func (c *Ctx) ForEachBlock(n int, size func(i int) int, fn func(c *Ctx, i int) error) error {
	if err := c.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	var sh *shared
	if c != nil {
		sh = c.s
	}
	if sh == nil || sh.sched == nil || n < 2 {
		return serialBlocks(c, n, fn)
	}
	// Tiny fan-out pre-pass: when no block reaches the task-size
	// threshold, the scheduled path below would enqueue nothing and run
	// every block inline anyway — while paying for a worker slot, the
	// join allocation, and the help protocol. Detect that up front and
	// run the plain serial loop; TasksInlined records the granularity
	// decision. The scan stops at the first large block, so fan-outs
	// with real parallel work pay O(prefix), not O(n).
	allTiny := true
	for i := 0; i < n; i++ {
		if size(i) >= MinParallelBlock {
			allTiny = false
			break
		}
	}
	if allTiny {
		c.Stats().Add(TasksInlined, int64(n))
		return serialBlocks(c, n, fn)
	}
	s := sh.sched
	w := c.w
	acquired := false
	if w == nil {
		// An unbound goroutine (a top-level solve) claims a worker slot
		// for the duration of the fan-out; when the budget is already
		// saturated by other solves on this Ctx, degrade to the serial
		// algorithm exactly like a full deque would.
		if w = s.tryAcquire(); w == nil {
			return serialBlocks(c, n, fn)
		}
		acquired = true
	}
	// Bind the worker to this fan-out's scope for the inline calls below
	// (c may be a freshly scoped Ctx riding a worker whose bound Ctx
	// still points at an enclosing request's scope), and restore on the
	// way out so an enclosing fan-out resumes under its own scope.
	prevScope := w.bctx.sc
	w.bctx.sc = c.sc
	j := &join{fn: fn, errs: make([]error, n), sc: c.sc, stats: c.Stats(), done: make(chan struct{})}
	j.pending.Store(1) // producer guard: keeps done from closing mid-enqueue
	var inline, tiny int64
	//lint:ignore fdlint/cancelcheck the fan-out polls through j.sc.err() before every inline dispatch; workers poll per dequeued task
	for i := 0; i < n; i++ {
		if size(i) >= MinParallelBlock {
			j.pending.Add(1)
			if w.dq.push(task{j: j, i: int32(i)}) {
				s.queued.Add(1)
				s.signal()
				continue
			}
			j.pending.Add(-1) // deque full: run inline below
		} else {
			tiny++ // below-threshold block: inline by granularity choice
		}
		inline++
		err := j.sc.err()
		if err == nil {
			err = runBlock(&w.bctx, fn, i)
		}
		if err != nil {
			j.errs[i] = err
		}
	}
	j.finish(1) // drop the producer guard
	s.helpUntil(w, j)
	w.bctx.sc = prevScope
	if acquired {
		s.release(w)
	}
	j.stats.Add(BlocksSerial, inline)
	j.stats.Add(TasksInlined, tiny)
	for _, err := range j.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serialBlocks is the non-scheduled path: run blocks in order, stop at
// the first failure (counting only blocks actually run, matching the
// scheduled path's accounting). Cancellation is checked before every
// block — the same dispatch check the scheduler's run() performs — so
// serial solves stop at block boundaries after a deadline even when
// the block bodies carry no internal check.
func serialBlocks(c *Ctx, n int, fn func(*Ctx, int) error) error {
	for i := 0; i < n; i++ {
		err := c.Err()
		if err == nil {
			err = runBlock(c, fn, i)
		}
		if err != nil {
			c.Stats().Add(BlocksSerial, int64(i+1))
			return err
		}
	}
	c.Stats().Add(BlocksSerial, int64(n))
	return nil
}

// ---- Per-worker arena shards ----

// wArenaSlots bounds each shard's per-type buffer count; overflow goes
// to the shared sync.Pools. Small on purpose: the shard exists to keep
// a worker's hottest buffers local, not to replace the pools.
const wArenaSlots = 8

// wArena is a worker-private scratch cache consulted before the shared
// pools. It is touched only by the goroutine owning the worker (slot
// ownership passes through the scheduler's free channel, which
// provides the happens-before edge), so access is lock-free, and
// buffers a worker recycles stay in that worker's cache even when the
// tasks producing them were stolen from another deque.
type wArena struct {
	int32s [][]int32
	f64s   [][]float64
	slices [][][]int32
	keyed  map[any][]any
}

// shardGet scans the shard stack newest-first for a buffer with
// capacity ≥ n, removing it by swap-with-last.
func shardGet[T any](store *[][]T, n int) ([]T, bool) {
	st := *store
	for k := len(st) - 1; k >= 0; k-- {
		if s := st[k]; cap(s) >= n {
			last := len(st) - 1
			st[k] = st[last]
			st[last] = nil
			*store = st[:last]
			return s[:n], true
		}
	}
	return nil, false
}

// shardPut parks a buffer on the shard stack; false when the shard is
// full (the caller then overflows to the shared pools).
func shardPut[T any](store *[][]T, s []T) bool {
	if len(*store) >= wArenaSlots {
		return false
	}
	*store = append(*store, s)
	return true
}

func (a *wArena) getInt32s(n int) ([]int32, bool)     { return shardGet(&a.int32s, n) }
func (a *wArena) putInt32s(s []int32) bool            { return shardPut(&a.int32s, s) }
func (a *wArena) getFloat64s(n int) ([]float64, bool) { return shardGet(&a.f64s, n) }
func (a *wArena) putFloat64s(s []float64) bool        { return shardPut(&a.f64s, s) }
func (a *wArena) getSlices(n int) ([][]int32, bool)   { return shardGet(&a.slices, n) }
func (a *wArena) putSlices(s [][]int32) bool          { return shardPut(&a.slices, s) }

func (a *wArena) getKeyed(key any) any {
	st := a.keyed[key]
	if len(st) == 0 {
		return nil
	}
	v := st[len(st)-1]
	st[len(st)-1] = nil
	a.keyed[key] = st[:len(st)-1]
	return v
}

func (a *wArena) putKeyed(key any, v any) bool {
	st := a.keyed[key]
	if len(st) >= wArenaSlots/2 {
		return false
	}
	if a.keyed == nil {
		a.keyed = make(map[any][]any, 4)
	}
	a.keyed[key] = append(st, v)
	return true
}
