package fdrepair

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// batchTestRequests builds a mixed batch: tables of different sizes
// and algorithms sharing one marriage-heavy tractable FD set, plus a
// hard set solved exactly and approximately.
func batchTestRequests() []Request {
	ds, small := solverTestInstance(60)
	_, mid := solverTestInstance(400)
	_, big := solverTestInstance(1200)
	hardDS := workload.HardSets()["ΔA→B→C"]
	hardTab := workload.RandomTable(hardDS.Schema(), 24, 3, rand.New(rand.NewSource(7)))
	return []Request{
		{FDs: ds, Table: small, Algorithm: AlgoOptimalSRepair},
		{FDs: ds, Table: big, Algorithm: AlgoOptimalSRepair},
		{FDs: hardDS, Table: hardTab, Algorithm: AlgoExactSRepair},
		{FDs: ds, Table: mid, Algorithm: AlgoOptimalURepair},
		{FDs: hardDS, Table: hardTab, Algorithm: AlgoApproxSRepair},
		{FDs: ds, Table: mid, Algorithm: AlgoOptimalSRepair},
	}
}

// soloResults runs every request alone on a fresh serial Solver — the
// reference SolveBatch must match byte for byte.
func soloResults(t *testing.T, reqs []Request) []BatchResult {
	t.Helper()
	out := make([]BatchResult, len(reqs))
	for i, r := range reqs {
		sv := NewSolver()
		switch r.Algorithm {
		case AlgoOptimalSRepair:
			tab, cost, err := sv.OptimalSRepair(r.FDs, r.Table)
			out[i] = BatchResult{Index: i, Table: tab, Cost: cost, Err: err}
		case AlgoExactSRepair:
			tab, cost, err := sv.ExactSRepair(r.FDs, r.Table)
			out[i] = BatchResult{Index: i, Table: tab, Cost: cost, Err: err}
		case AlgoApproxSRepair:
			tab, cost, err := sv.ApproxSRepair(r.FDs, r.Table)
			out[i] = BatchResult{Index: i, Table: tab, Cost: cost, Err: err}
		case AlgoOptimalURepair:
			ur, err := sv.OptimalURepair(r.FDs, r.Table)
			out[i] = BatchResult{Index: i, Err: err}
			if err == nil {
				out[i].Table, out[i].Cost = ur.Update, ur.Cost
			}
		default:
			t.Fatalf("solo harness: unhandled algorithm %v", r.Algorithm)
		}
		if out[i].Err != nil {
			t.Fatalf("solo request %d (%v): %v", i, r.Algorithm, out[i].Err)
		}
	}
	return out
}

// TestSolveBatchMatchesSolo: batch results are index-aligned and
// byte-identical to sequential solo solves at every worker count.
func TestSolveBatchMatchesSolo(t *testing.T) {
	reqs := batchTestRequests()
	want := soloResults(t, reqs)
	for _, workers := range []int{1, 2, 4, 8} {
		sv := NewSolver(WithParallelism(workers))
		// Two rounds on one Solver: the second round exercises warm
		// arenas and proves scope hygiene across batches.
		for round := 0; round < 2; round++ {
			got := sv.SolveBatch(reqs)
			if len(got) != len(reqs) {
				t.Fatalf("workers=%d: %d results for %d requests", workers, len(got), len(reqs))
			}
			for i, g := range got {
				if g.Err != nil {
					t.Fatalf("workers=%d round=%d request %d: %v", workers, round, i, g.Err)
				}
				if g.Index != i {
					t.Fatalf("workers=%d: result %d carries index %d", workers, i, g.Index)
				}
				if g.Cost != want[i].Cost {
					t.Fatalf("workers=%d request %d: cost %v != %v", workers, i, g.Cost, want[i].Cost)
				}
				sameRepair(t, want[i].Table, g.Table)
			}
		}
	}
}

// TestSolveBatchRequestIsolation: one request with an already-expired
// deadline inside a batch of valid requests — the expired one returns
// context.DeadlineExceeded, the rest complete byte-identical to solo
// solves. Exercised serial and scheduled.
func TestSolveBatchRequestIsolation(t *testing.T) {
	ds, tab := solverTestInstance(400)
	want, wantCost, err := NewSolver().OptimalSRepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	for _, workers := range []int{1, 4} {
		sv := NewSolver(WithParallelism(workers))
		got := sv.SolveBatch([]Request{
			{FDs: ds, Table: tab},
			{FDs: ds, Table: tab, Context: expired},
			{FDs: ds, Table: tab},
		})
		if !errors.Is(got[1].Err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: expired request err = %v", workers, got[1].Err)
		}
		for _, i := range []int{0, 2} {
			if got[i].Err != nil {
				t.Fatalf("workers=%d: healthy request %d poisoned: %v", workers, i, got[i].Err)
			}
			if got[i].Cost != wantCost {
				t.Fatalf("workers=%d: request %d cost %v != %v", workers, i, got[i].Cost, wantCost)
			}
			sameRepair(t, want, got[i].Table)
		}
	}
}

// TestSolveBatchNilRequestIsolated: a malformed request (nil Table or
// FDs) becomes a per-request error at every worker count — it must not
// panic the batch via the scheduler's size callback.
func TestSolveBatchNilRequestIsolated(t *testing.T) {
	ds, tab := solverTestInstance(200)
	for _, workers := range []int{1, 2} {
		sv := NewSolver(WithParallelism(workers))
		got := sv.SolveBatch([]Request{
			{FDs: ds, Table: tab},
			{FDs: ds, Table: nil},
			{FDs: nil, Table: tab},
		})
		if got[0].Err != nil {
			t.Fatalf("workers=%d: healthy request: %v", workers, got[0].Err)
		}
		for _, i := range []int{1, 2} {
			if got[i].Err == nil {
				t.Fatalf("workers=%d: malformed request %d returned no error", workers, i)
			}
		}
	}
}

// TestSolveBatchRequestTimeout: WithRequestTimeout bounds each request
// individually — a deadline far too short for the big request leaves
// its small batch siblings untouched.
func TestSolveBatchRequestTimeout(t *testing.T) {
	ds, small := solverTestInstance(50)
	_, big := solverTestInstance(20000)
	sv := NewSolver(WithParallelism(2))
	got := sv.SolveBatch([]Request{
		{FDs: ds, Table: small},
		{FDs: ds, Table: big},
		{FDs: ds, Table: small},
	}, WithRequestTimeout(time.Nanosecond))
	// Every request shares the same tiny deadline; at n=20000 the solve
	// cannot finish within a nanosecond.
	if !errors.Is(got[1].Err, context.DeadlineExceeded) {
		t.Fatalf("big request err = %v, want deadline exceeded", got[1].Err)
	}
	// A generous per-request deadline lets everything finish.
	got = sv.SolveBatch([]Request{
		{FDs: ds, Table: small},
		{FDs: ds, Table: small},
	}, WithRequestTimeout(time.Minute))
	for i, g := range got {
		if g.Err != nil {
			t.Fatalf("request %d with generous timeout: %v", i, g.Err)
		}
	}
}

// TestSolveBatchPerRequestStats: each result carries its own counter
// slice and the solver aggregate accumulates all of them.
func TestSolveBatchPerRequestStats(t *testing.T) {
	ds, t1 := solverTestInstance(200)
	_, t2 := solverTestInstance(600)
	sv := NewSolver(WithStats())
	got := sv.SolveBatch([]Request{
		{FDs: ds, Table: t1},
		{FDs: ds, Table: t2},
	})
	var sum int64
	for i, g := range got {
		if g.Err != nil {
			t.Fatalf("request %d: %v", i, g.Err)
		}
		if g.Stats.Nodes <= 0 {
			t.Fatalf("request %d has no per-request stats: %+v", i, g.Stats)
		}
		sum += g.Stats.Nodes
	}
	if got[0].Stats.Nodes >= got[1].Stats.Nodes {
		t.Fatalf("bigger table should visit more nodes: %d vs %d",
			got[0].Stats.Nodes, got[1].Stats.Nodes)
	}
	if agg := sv.Stats().Nodes; agg != sum {
		t.Fatalf("aggregate nodes %d != sum of per-request %d", agg, sum)
	}
}

// TestStreamDeliversAll: the queue form delivers exactly one result
// per submission, indices identify requests across completion
// reordering, and results match solo solves.
func TestStreamDeliversAll(t *testing.T) {
	ds, small := solverTestInstance(60)
	_, mid := solverTestInstance(400)
	tabs := []*Table{small, mid, small, mid, small, small, mid, small}
	want := make([]BatchResult, len(tabs))
	for i, tab := range tabs {
		rep, cost, err := NewSolver().OptimalSRepair(ds, tab)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = BatchResult{Table: rep, Cost: cost}
	}
	for _, workers := range []int{1, 4} {
		sv := NewSolver(WithParallelism(workers))
		st := sv.NewStream()
		var wg sync.WaitGroup
		seen := make([]bool, len(tabs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for res := range st.Results() {
				if res.Err != nil {
					t.Errorf("workers=%d request %d: %v", workers, res.Index, res.Err)
					continue
				}
				if res.Index < 0 || res.Index >= len(seen) || seen[res.Index] {
					t.Errorf("workers=%d: bad or duplicate index %d", workers, res.Index)
					continue
				}
				seen[res.Index] = true
				if res.Cost != want[res.Index].Cost {
					t.Errorf("workers=%d request %d: cost %v != %v",
						workers, res.Index, res.Cost, want[res.Index].Cost)
				}
			}
		}()
		for i, tab := range tabs {
			got, err := st.Submit(Request{FDs: ds, Table: tab})
			if err != nil {
				t.Fatalf("workers=%d: Submit: %v", workers, err)
			}
			if got != i {
				t.Fatalf("workers=%d: Submit returned %d, want %d", workers, got, i)
			}
		}
		st.Close()
		wg.Wait()
		for i, ok := range seen {
			if !ok {
				t.Fatalf("workers=%d: request %d never delivered", workers, i)
			}
		}
	}
}

// TestStreamSubmitAfterClose pins the shutdown contract: Submit after
// Close returns ErrStreamClosed (it must not panic — a serving daemon
// races producers against drain), Close is idempotent, and Results
// still closes cleanly.
func TestStreamSubmitAfterClose(t *testing.T) {
	ds, tab := solverTestInstance(20)
	st := NewSolver().NewStream()
	st.Close()
	st.Close() // idempotent
	if _, err := st.Submit(Request{FDs: ds, Table: tab}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrStreamClosed", err)
	}
	for range st.Results() {
		t.Fatal("unexpected result on an empty closed stream")
	}
}

// TestStreamSubmitCloseRace races concurrent producers against Close:
// every Submit either succeeds (its result must be delivered exactly
// once) or fails with ErrStreamClosed; nothing panics, every accepted
// request is accounted for, and indexes stay dense.
func TestStreamSubmitCloseRace(t *testing.T) {
	ds, tab := solverTestInstance(60)
	for _, workers := range []int{1, 4} {
		sv := NewSolver(WithParallelism(workers))
		st := sv.NewStream()

		var accepted atomic.Int64
		var rejected atomic.Int64
		var producers sync.WaitGroup
		for p := 0; p < 4; p++ {
			producers.Add(1)
			go func() {
				defer producers.Done()
				for k := 0; k < 8; k++ {
					if _, err := st.Submit(Request{FDs: ds, Table: tab}); err != nil {
						if !errors.Is(err, ErrStreamClosed) {
							t.Errorf("Submit: unexpected error %v", err)
						}
						rejected.Add(1)
						return
					}
					accepted.Add(1)
				}
			}()
		}
		// Close lands somewhere in the middle of the submissions.
		time.Sleep(time.Millisecond)
		st.Close()

		var delivered int64
		var consumer sync.WaitGroup
		consumer.Add(1)
		go func() {
			defer consumer.Done()
			for res := range st.Results() {
				if res.Err != nil {
					t.Errorf("request %d: %v", res.Index, res.Err)
				}
				delivered++
			}
		}()
		producers.Wait()
		consumer.Wait()
		if delivered != accepted.Load() {
			t.Fatalf("workers=%d: %d results delivered for %d accepted Submits (%d rejected)",
				workers, delivered, accepted.Load(), rejected.Load())
		}
	}
}

// measureSmallSolveBytes reports mean B/op of repeated small solves on
// sv, forcing the solver's sync.Pool arenas empty before every solve
// (two GCs clear both pool generations) so the measurement captures
// what a cold solve freshly allocates — exactly where scratch sized
// for an earlier, larger solve would show. Measured by TotalAlloc
// deltas on a single goroutine rather than testing.Benchmark, which
// would scale its iteration count off the timed window and pay the
// untimed GCs millions of times.
func measureSmallSolveBytes(t *testing.T, sv *Solver, ds *FDSet, tab *Table) int64 {
	t.Helper()
	const iters = 10
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < iters; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := sv.OptimalSRepair(ds, tab); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	return int64(total / iters)
}

// TestStickyHintsRegression: on one reused Solver, a small solve after
// a 102400-row solve must allocate within 2× the B/op of the same small
// solve on a fresh Solver — fresh scratch is sized for the solve at
// hand, never for an earlier, larger one.
func TestStickyHintsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 102400-row solve")
	}
	sc := MustSchema("R", "A", "B", "C")
	ds := MustFDs(sc, "A -> B", "B -> A", "B -> C")
	big := workload.MarriageSparseTable(sc, 102400, 3, 3, rand.New(rand.NewSource(102400)))
	small := workload.RandomTable(sc, 100, 12, rand.New(rand.NewSource(100)))

	fresh := NewSolver()
	freshBytes := measureSmallSolveBytes(t, fresh, ds, small)

	reused := NewSolver()
	if _, _, err := reused.OptimalSRepair(ds, big); err != nil {
		t.Fatal(err)
	}
	reusedBytes := measureSmallSolveBytes(t, reused, ds, small)

	t.Logf("small-solve B/op: fresh=%d reused-after-102400=%d", freshBytes, reusedBytes)
	// 2× plus a small absolute slack so a tiny denominator cannot turn
	// pool-timing noise into a failure; the bug this pins was a >100×
	// blowup (hundreds of KB → tens of MB).
	if reusedBytes > 2*freshBytes+64<<10 {
		t.Fatalf("sticky hints: small solve on reused solver allocates %d B/op, fresh %d B/op",
			reusedBytes, freshBytes)
	}
}
