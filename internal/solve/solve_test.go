package solve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersClamp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {16, 16}} {
		if got := New(tc.in, nil, nil).Workers(); got != tc.want {
			t.Fatalf("New(%d).Workers() = %d, want %d", tc.in, got, tc.want)
		}
	}
	var nilCtx *Ctx
	if got := nilCtx.Workers(); got != 1 {
		t.Fatalf("nil ctx workers = %d", got)
	}
}

func TestErrCancellation(t *testing.T) {
	if err := New(1, nil, nil).Err(); err != nil {
		t.Fatalf("non-cancellable ctx Err = %v", err)
	}
	var nilCtx *Ctx
	if err := nilCtx.Err(); err != nil {
		t.Fatalf("nil ctx Err = %v", err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	c := New(1, cctx, nil)
	if err := c.Err(); err != nil {
		t.Fatalf("live ctx Err = %v", err)
	}
	cancel()
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx Err = %v", err)
	}
}

func TestForEachBlockSerialAndParallel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := New(workers, nil, nil)
		n := 200
		out := make([]int, n)
		err := c.ForEachBlock(n, func(i int) int { return i }, func(_ *Ctx, i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: block %d = %d", workers, i, v)
			}
		}
	}
}

func TestForEachBlockFirstErrorByIndex(t *testing.T) {
	for _, workers := range []int{1, 8} {
		c := New(workers, nil, nil)
		var ran atomic.Int64
		err := c.ForEachBlock(50, func(i int) int { return 1000 }, func(_ *Ctx, i int) error {
			ran.Add(1)
			if i == 7 || i == 31 {
				return fmt.Errorf("block %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "block 7 failed" {
			t.Fatalf("workers=%d: err = %v, want block 7 (first by index)", workers, err)
		}
		if workers == 1 {
			// The serial path stops at the first failure.
			if ran.Load() != 8 {
				t.Fatalf("serial: ran %d blocks, want 8", ran.Load())
			}
		} else if ran.Load() != 50 {
			// The parallel path drains every block before reporting.
			t.Fatalf("parallel: all blocks must run to completion, got %d", ran.Load())
		}
	}
}

func TestForEachBlockCancelFailsFast(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(4, cctx, nil)
	ran := false
	err := c.ForEachBlock(10, func(int) int { return 1 }, func(*Ctx, int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("blocks ran despite cancelled context")
	}
}

func TestArenaReuseAndStats(t *testing.T) {
	st := new(Stats)
	c := New(1, nil, st)
	s := c.Int32s(100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	if st.ArenaMisses.Load() == 0 {
		t.Fatal("first Get must be a miss")
	}
	c.PutInt32s(s)
	// sync.Pool is allowed to drop a Put (and does so randomly under
	// the race detector), so assert reuse over a few Put/Get cycles —
	// re-seeding a large buffer each round — rather than on a single
	// pair.
	hit := false
	for i := 0; i < 20 && !hit; i++ {
		hit = cap(c.Int32s(64)) >= 100 && st.ArenaHits.Load() > 0
		c.PutInt32s(make([]int32, 128))
	}
	if !hit {
		t.Fatal("pooled slice never reused across 20 Put/Get cycles")
	}
	// Requesting more than the pooled capacity falls back to a fresh
	// allocation (counted as a miss, not a failure).
	big := c.Int32s(1 << 12)
	if len(big) != 1<<12 {
		t.Fatalf("len = %d", len(big))
	}

	hit = false
	c.PutFloat64s(c.Float64s(10))
	for i := 0; i < 20 && !hit; i++ {
		hit = cap(c.Float64s(5)) >= 10
		c.PutFloat64s(make([]float64, 16))
	}
	if !hit {
		t.Fatal("float64 pool never reused across 20 Put/Get cycles")
	}

	g := c.Int32Slices(5)
	g[3] = []int32{1, 2}
	c.PutInt32Slices(g)
	g2 := c.Int32Slices(4)
	for i, e := range g2 {
		if e != nil {
			t.Fatalf("recycled entry %d not cleared: %v", i, e)
		}
	}
}

func TestArenaNilCtxSafe(t *testing.T) {
	var c *Ctx
	if s := c.Int32s(4); len(s) != 4 {
		t.Fatal("nil ctx Int32s")
	}
	c.PutInt32s(nil)
	c.PutFloat64s(nil)
	c.PutInt32Slices(nil)
	if v := c.GetScratch("k"); v != nil {
		t.Fatal("nil ctx GetScratch")
	}
	c.PutScratch("k", 1)
	if err := c.ForEachBlock(3, func(int) int { return 1 }, func(*Ctx, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestSerialCancelBetweenBlocks: the serial path checks cancellation
// at every block boundary (the same dispatch check the scheduler
// performs), so a deadline stops a serial fan-out even when the block
// bodies carry no internal check.
func TestSerialCancelBetweenBlocks(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	c := New(1, cctx, nil)
	var ran []int
	err := c.ForEachBlock(3, func(int) int { return 1 }, func(_ *Ctx, i int) error {
		ran = append(ran, i)
		cancel() // fires mid-fan-out; later blocks must not run
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("blocks ran after cancellation: %v", ran)
	}
}

// TestScopedCancellationAndStats: a Scoped ctx carries its own
// cancellation and stats sink; the parent ctx is unaffected, and a
// cancelled request does not cancel its siblings.
func TestScopedCancellationAndStats(t *testing.T) {
	var nilCtx *Ctx
	if nilCtx.Scoped(nil, nil) != nil {
		t.Fatal("nil ctx Scoped")
	}
	base := New(4, nil, nil)
	cctx, cancel := context.WithCancel(context.Background())
	st := new(Stats)
	req := base.Scoped(cctx, st)
	if err := req.Err(); err != nil {
		t.Fatalf("live request Err = %v", err)
	}
	if req.Stats() != st {
		t.Fatal("scoped stats sink not honored")
	}
	sibling := base.Scoped(context.Background(), nil)
	cancel()
	if err := req.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request Err = %v", err)
	}
	if err := sibling.Err(); err != nil {
		t.Fatalf("sibling poisoned by cancelled request: %v", err)
	}
	if err := base.Err(); err != nil {
		t.Fatalf("parent poisoned by cancelled request: %v", err)
	}
	// A cancelled request's fan-out fails fast; a sibling's proceeds,
	// and each fan-out's counters land in its own scope's sink.
	if err := req.ForEachBlock(4, func(int) int { return 1000 }, func(*Ctx, int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request fan-out = %v", err)
	}
	if err := sibling.ForEachBlock(4, func(int) int { return 1000 }, func(*Ctx, int) error { return nil }); err != nil {
		t.Fatalf("sibling fan-out = %v", err)
	}
	snap := st.Snapshot()
	if snap.BlocksSerial+snap.BlocksParallel != 0 {
		t.Fatalf("cancelled request ran blocks: %+v", snap)
	}
}

// TestInterleavedScopesOnOneScheduler runs many concurrent requests —
// each under its own scope with its own stats sink — over one shared
// scheduler, and checks that every block sees its own request's sink
// and every request's counters land there. This is the admission shape
// SolveBatch uses.
func TestInterleavedScopesOnOneScheduler(t *testing.T) {
	base := New(4, nil, nil)
	const requests = 16
	var wg sync.WaitGroup
	errs := make([]error, requests)
	stats := make([]*Stats, requests)
	for r := 0; r < requests; r++ {
		r := r
		stats[r] = new(Stats)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := base.Scoped(context.Background(), stats[r])
			blocks := 3 + r%4
			err := c.ForEachBlock(blocks, func(int) int { return 1000 }, func(wc *Ctx, i int) error {
				// The worker-bound ctx handed to the block must carry the
				// request's scope, not a neighbor's.
				if wc.Stats() != stats[r] {
					return fmt.Errorf("request %d block %d reports into another request's stats sink", r, i)
				}
				return nil
			})
			errs[r] = err
			if err == nil {
				snap := stats[r].Snapshot()
				if got := snap.BlocksSerial + snap.BlocksParallel; got != int64(blocks) {
					errs[r] = fmt.Errorf("request %d counted %d blocks, want %d", r, got, blocks)
				}
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
	}
}

func TestStatsSnapshotAndReset(t *testing.T) {
	st := new(Stats)
	st.Node()
	st.MatcherPath(MatcherFast)
	st.MatcherPath(MatcherDensePath)
	st.MatcherPath(MatcherSparsePath)
	snap := st.Snapshot()
	if snap.Nodes != 1 || snap.MatcherFastPath != 1 || snap.MatcherDense != 1 || snap.MatcherSparse != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	st.Reset()
	if st.Snapshot() != (Snapshot{}) {
		t.Fatalf("reset left %+v", st.Snapshot())
	}
	var nilStats *Stats
	nilStats.Node()
	nilStats.MatcherPath(MatcherFast)
	nilStats.Reset()
	if nilStats.Snapshot() != (Snapshot{}) {
		t.Fatal("nil stats snapshot")
	}
}

// TestDefaultWorkers: the process-default context is serial and one
// immutable value.
func TestDefaultWorkers(t *testing.T) {
	if Default().Workers() != 1 {
		t.Fatalf("default workers = %d", Default().Workers())
	}
	if Default() != Default() {
		t.Fatal("Default returned two contexts")
	}
}
