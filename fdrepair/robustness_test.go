package fdrepair

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/solve/failpoint"
)

// TestSolveBatchPanicIsolation: with a one-shot panic failpoint armed
// mid-recursion, exactly one request of a batch fails with a
// *PanicError (stack attached, panic counted in SolveStats) while
// every sibling completes byte-identical to its solo solve — at
// workers 1 and 4, twice per solver to prove the scheduler survives.
func TestSolveBatchPanicIsolation(t *testing.T) {
	defer failpoint.DisableAll()
	ds, small := solverTestInstance(200)
	_, mid := solverTestInstance(400)
	_, big := solverTestInstance(800)
	reqs := []Request{
		{FDs: ds, Table: small},
		{FDs: ds, Table: mid},
		{FDs: ds, Table: big},
		{FDs: ds, Table: mid},
	}
	want := soloResults(t, reqs)

	for _, workers := range []int{1, 4} {
		sv := NewSolver(WithParallelism(workers), WithStats())
		// After:10 lands the fire well inside some request's block
		// recursion (depth > 1 for these instances), not at its entry.
		failpoint.Enable(failpoint.PanicInBlock, failpoint.Spec{After: 10, Count: 1})
		got := sv.SolveBatch(reqs)
		failpoint.DisableAll()

		panicked := 0
		for i, g := range got {
			if g.Err != nil {
				var pe *PanicError
				if !errors.As(g.Err, &pe) {
					t.Fatalf("workers=%d request %d: err = %v, want *PanicError", workers, i, g.Err)
				}
				panicked++
				continue
			}
			if g.Cost != want[i].Cost {
				t.Fatalf("workers=%d request %d: cost %v != solo %v", workers, i, g.Cost, want[i].Cost)
			}
			sameRepair(t, want[i].Table, g.Table)
		}
		if panicked != 1 {
			t.Fatalf("workers=%d: %d requests panicked, want exactly 1", workers, panicked)
		}
		if sv.Stats().Panics < 1 {
			t.Fatalf("workers=%d: aggregate Panics = %d, want ≥ 1", workers, sv.Stats().Panics)
		}
		// The same solver must serve a clean batch afterwards.
		for i, g := range sv.SolveBatch(reqs) {
			if g.Err != nil {
				t.Fatalf("workers=%d post-panic request %d: %v", workers, i, g.Err)
			}
			sameRepair(t, want[i].Table, g.Table)
		}
	}
}

// TestRequestDeadlineComposition: WithRequestTimeout and
// Request.Context compose to the earliest deadline in both orders, and
// an already-expired context inside a healthy batch fails only its own
// request. The slow-block failpoint stalls dispatches so the solve
// reliably outlives the short deadline.
func TestRequestDeadlineComposition(t *testing.T) {
	defer failpoint.DisableAll()
	ds, tab := solverTestInstance(800)

	run := func(reqCtx context.Context, timeout time.Duration) (BatchResult, time.Duration) {
		failpoint.Enable(failpoint.SlowBlock, failpoint.Spec{Sleep: 2 * time.Millisecond})
		defer failpoint.DisableAll()
		sv := NewSolver()
		start := time.Now()
		res := sv.SolveBatch(
			[]Request{{FDs: ds, Table: tab, Context: reqCtx}},
			WithRequestTimeout(timeout),
		)[0]
		return res, time.Since(start)
	}

	// Order A: the request context's 30ms deadline is earlier than the
	// 10s batch timeout.
	ctxA, cancelA := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancelA()
	resA, elapsedA := run(ctxA, 10*time.Second)
	if !errors.Is(resA.Err, context.DeadlineExceeded) {
		t.Fatalf("context-earlier: err = %v, want DeadlineExceeded", resA.Err)
	}
	if elapsedA > 5*time.Second {
		t.Fatalf("context-earlier: took %v; the later timeout won", elapsedA)
	}

	// Order B: the 30ms batch timeout is earlier than the context's 10s
	// deadline.
	ctxB, cancelB := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelB()
	resB, elapsedB := run(ctxB, 30*time.Millisecond)
	if !errors.Is(resB.Err, context.DeadlineExceeded) {
		t.Fatalf("timeout-earlier: err = %v, want DeadlineExceeded", resB.Err)
	}
	if elapsedB > 5*time.Second {
		t.Fatalf("timeout-earlier: took %v; the later context deadline won", elapsedB)
	}

	// An already-expired request context inside a healthy batch: the
	// expired request fails alone, siblings complete — with the batch
	// timeout still armed (the regression is the composition path).
	want, wantCost, err := NewSolver().OptimalSRepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancelE := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancelE()
	for _, workers := range []int{1, 4} {
		sv := NewSolver(WithParallelism(workers))
		got := sv.SolveBatch([]Request{
			{FDs: ds, Table: tab},
			{FDs: ds, Table: tab, Context: expired},
			{FDs: ds, Table: tab},
		}, WithRequestTimeout(10*time.Second))
		if !errors.Is(got[1].Err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: expired request err = %v", workers, got[1].Err)
		}
		for _, i := range []int{0, 2} {
			if got[i].Err != nil {
				t.Fatalf("workers=%d: healthy request %d: %v", workers, i, got[i].Err)
			}
			if got[i].Cost != wantCost {
				t.Fatalf("workers=%d: healthy request %d cost %v != %v", workers, i, got[i].Cost, wantCost)
			}
			sameRepair(t, want, got[i].Table)
		}
	}
}

// TestApproxFallback: an exact solve whose WithApproxFallback budget
// expires degrades to the 2-approximation (Degraded set, result
// byte-identical to AlgoApproxSRepair solo); a generous budget leaves
// the exact result untouched; an expired request deadline still fails
// rather than degrade.
func TestApproxFallback(t *testing.T) {
	// Small instance: the exact baseline is exponential and the
	// generous-budget case must actually finish it.
	ds, tab := solverTestInstance(24)

	wantApprox := NewSolver().SolveBatch([]Request{{FDs: ds, Table: tab, Algorithm: AlgoApproxSRepair}})[0]
	if wantApprox.Err != nil {
		t.Fatal(wantApprox.Err)
	}
	wantExact := NewSolver().SolveBatch([]Request{{FDs: ds, Table: tab, Algorithm: AlgoExactSRepair}})[0]
	if wantExact.Err != nil {
		t.Fatal(wantExact.Err)
	}

	for _, workers := range []int{1, 4} {
		sv := NewSolver(WithParallelism(workers))

		// 1ns budget: the exact sub-scope is born expired, so the
		// fallback always triggers, deterministically.
		res := sv.SolveBatch(
			[]Request{{FDs: ds, Table: tab, Algorithm: AlgoExactSRepair}},
			WithApproxFallback(time.Nanosecond), WithRequestTimeout(time.Minute),
		)[0]
		if res.Err != nil {
			t.Fatalf("workers=%d: degraded request err = %v", workers, res.Err)
		}
		if !res.Degraded {
			t.Fatalf("workers=%d: fallback did not mark Degraded", workers)
		}
		if res.Cost != wantApprox.Cost {
			t.Fatalf("workers=%d: degraded cost %v != approx solo %v", workers, res.Cost, wantApprox.Cost)
		}
		sameRepair(t, wantApprox.Table, res.Table)

		// Generous budget: exact completes, no degradation.
		res = sv.SolveBatch(
			[]Request{{FDs: ds, Table: tab, Algorithm: AlgoExactSRepair}},
			WithApproxFallback(time.Minute),
		)[0]
		if res.Err != nil || res.Degraded {
			t.Fatalf("workers=%d: healthy exact: err=%v degraded=%v", workers, res.Err, res.Degraded)
		}
		if res.Cost != wantExact.Cost {
			t.Fatalf("workers=%d: exact cost %v != %v", workers, res.Cost, wantExact.Cost)
		}

		// Expired request deadline: fail, never degrade — the client is
		// gone either way.
		expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
		res = sv.SolveBatch(
			[]Request{{FDs: ds, Table: tab, Algorithm: AlgoExactSRepair, Context: expired}},
			WithApproxFallback(time.Nanosecond),
		)[0]
		cancel()
		if !errors.Is(res.Err, context.DeadlineExceeded) || res.Degraded {
			t.Fatalf("workers=%d: expired request: err=%v degraded=%v", workers, res.Err, res.Degraded)
		}
	}
}

// TestSolverClose: Close refuses new work with ErrSolverClosed across
// every entry point, waits for in-flight solves, is idempotent, and
// honors its own deadline when the drain outlives it.
func TestSolverClose(t *testing.T) {
	defer failpoint.DisableAll()
	ds, tab := solverTestInstance(400)

	sv := NewSolver(WithParallelism(2))
	var solveErr error
	var wg sync.WaitGroup
	// The solve's first block stalls, so the solve is in flight, not
	// merely started, when Close begins.
	failpoint.Enable(failpoint.SlowBlock, failpoint.Spec{Count: 1, Sleep: 20 * time.Millisecond})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, solveErr = sv.OptimalSRepair(ds, tab)
	}()
	for i := 0; failpoint.Fires(failpoint.SlowBlock) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// Close must wait for the in-flight solve and then report a clean
	// quiesce.
	if err := sv.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if solveErr != nil {
		t.Fatalf("in-flight solve during Close: %v", solveErr)
	}

	// Every entry point refuses now.
	if _, _, err := sv.OptimalSRepair(ds, tab); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("OptimalSRepair after Close: %v", err)
	}
	if _, err := sv.OptimalURepair(ds, tab); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("OptimalURepair after Close: %v", err)
	}
	for _, res := range sv.SolveBatch([]Request{{FDs: ds, Table: tab}}) {
		if !errors.Is(res.Err, ErrSolverClosed) {
			t.Fatalf("SolveBatch after Close: %v", res.Err)
		}
	}
	if _, err := sv.NewStream().Submit(Request{FDs: ds, Table: tab}); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("Stream.Submit after Close: %v", err)
	}
	if err := sv.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// A Close whose context expires before a stalled solve drains
	// returns the context error (the straggler finishes on its own).
	failpoint.Enable(failpoint.SlowBlock, failpoint.Spec{Sleep: 5 * time.Millisecond})
	_, smallTab := solverTestInstance(100)
	slow := NewSolver()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = slow.OptimalSRepair(ds, smallTab)
	}()
	for i := 0; failpoint.Fires(failpoint.SlowBlock) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := slow.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with expired budget: %v", err)
	}
	wg.Wait()
}
