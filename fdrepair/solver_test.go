package fdrepair

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/table"
	"repro/internal/workload"
)

// solverTestInstance builds a deep, marriage-heavy tractable instance:
// the shape that exercises all three subroutines, the sparse matcher
// and the block fan-out.
func solverTestInstance(n int) (*FDSet, *Table) {
	sc := MustSchema("R", "A", "B", "C")
	ds := MustFDs(sc, "A -> B", "B -> A", "B -> C")
	tab := workload.RandomTable(sc, n, n/10+2, rand.New(rand.NewSource(int64(n))))
	return ds, tab
}

// sameRepair asserts two repairs are byte-identical: same identifiers
// in the same order, same tuples, same weights.
func sameRepair(t *testing.T, want, got *Table) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("repair size %d != %d", got.Len(), want.Len())
	}
	if !want.IsSubsetOf(got) || !got.IsSubsetOf(want) {
		t.Fatalf("repairs differ:\nwant %v\ngot  %v", want.IDs(), got.IDs())
	}
}

// render serializes everything a caller can observe of a result, so
// two results compare byte for byte.
func render(res BatchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v degraded=%v cost=%v\n", res.Err, res.Degraded, res.Cost)
	if res.Table != nil {
		res.Table.WriteCSV(&b)
	}
	if u := res.URepair; u != nil {
		fmt.Fprintf(&b, "urepair exact=%v ratio=%v method=%s cost=%v\n", u.Exact, u.RatioBound, u.Method, u.Cost)
	}
	if c := res.CFD; c != nil {
		fmt.Fprintf(&b, "cfd forced=%v forced_cost=%v total=%v\n", c.Forced, c.ForcedCost, c.TotalCost)
	}
	if q := res.CQA; q != nil {
		fmt.Fprintf(&b, "cqa certain=%v possible=%v repairs=%d\n", q.Certain, q.Possible, q.Repairs)
	}
	return b.String()
}

func tableResult(t *Table, cost float64, err error) BatchResult {
	return BatchResult{Table: t, Cost: cost, Err: err}
}

// cqaTestInstance is a 200-row table under A -> B whose conflicts are
// pairs of rows, so its repairs enumerate per two-row component.
func cqaTestInstance() (*FDSet, *Table, *CQAQuery) {
	sc := MustSchema("R", "A", "B", "C")
	ds := MustFDs(sc, "A -> B")
	tab := NewTable(sc)
	for i := 0; i < 200; i++ {
		b := "b0"
		if i%6 == 1 {
			b = "b1"
		}
		tab.MustInsert(i+1, Tuple{fmt.Sprintf("a%d", i/2), b, fmt.Sprintf("c%d", i%3)}, 1)
	}
	q, err := NewCQAQuery(sc, []string{"A", "B"})
	if err != nil {
		panic(err)
	}
	return ds, tab, q
}

// surfaceCase is one algorithm on one instance through its three
// surfaces: the package-level function, the Solver method and (when
// the algorithm is a table row) a one-request SolveBatch.
type surfaceCase struct {
	name   string
	req    *Request // nil: not a batch algorithm
	pkg    func() BatchResult
	method func(sv *Solver) BatchResult
}

// TestSolverMatchesPackageFunctions: for every Algorithm, the
// package-level function, the Solver method and a one-request
// SolveBatch give byte-identical results (auto against the two
// algorithms it dispatches to). The package-level functions run on the
// encoded engines: the CQA case is a 200-row table, past the 64-tuple
// bound of the seed engine.
func TestSolverMatchesPackageFunctions(t *testing.T) {
	ds, tab := solverTestInstance(400)
	small := workload.RandomTable(ds.Schema(), 24, 3, rand.New(rand.NewSource(7)))
	hardDS := workload.HardSets()["ΔA→B→C"]
	hardTab := workload.RandomTable(hardDS.Schema(), 24, 3, rand.New(rand.NewSource(7)))
	prob := NewTable(ds.Schema())
	rng := rand.New(rand.NewSource(11))
	for _, r := range small.Rows() {
		prob.MustInsert(r.ID, r.Tuple, 0.05+0.9*rng.Float64())
	}
	sc := ds.Schema()
	var cfds []*ConditionalFD
	for _, spec := range []string{"A -> B", "B -> C | v1 -> _"} {
		c, err := ParseConditionalFD(sc, spec)
		if err != nil {
			t.Fatal(err)
		}
		cfds = append(cfds, c)
	}
	var dcs []*DenialConstraint
	for _, spec := range []string{"t1.A = t2.A & t1.B != t2.B", "t1.B = t2.B & t1.C != t2.C"} {
		c, err := ParseDenial(sc, spec)
		if err != nil {
			t.Fatal(err)
		}
		dcs = append(dcs, c)
	}
	smallDCs := dcs[:1]
	cqaDS, cqaTab, cqaQ := cqaTestInstance()
	rel := NewPriority()
	first := map[string]table.Row{}
	for _, r := range tab.Rows() {
		if f, ok := first[r.Tuple[0]]; !ok {
			first[r.Tuple[0]] = r
		} else if f.Tuple[1] != r.Tuple[1] && rng.Intn(3) == 0 {
			rel.Add(f.ID, r.ID)
		}
	}

	cases := []surfaceCase{
		{"optimal", &Request{FDs: ds, Table: tab, Algorithm: AlgoOptimalSRepair},
			func() BatchResult { return tableResult(OptimalSRepair(ds, tab)) },
			func(sv *Solver) BatchResult { return tableResult(sv.OptimalSRepair(ds, tab)) }},
		{"optimal/hard", &Request{FDs: hardDS, Table: hardTab, Algorithm: AlgoOptimalSRepair},
			func() BatchResult { return tableResult(OptimalSRepair(hardDS, hardTab)) },
			func(sv *Solver) BatchResult { return tableResult(sv.OptimalSRepair(hardDS, hardTab)) }},
		{"exact", &Request{FDs: ds, Table: small, Algorithm: AlgoExactSRepair},
			func() BatchResult { return tableResult(ExactSRepair(ds, small)) },
			func(sv *Solver) BatchResult { return tableResult(sv.ExactSRepair(ds, small)) }},
		{"approx", &Request{FDs: ds, Table: tab, Algorithm: AlgoApproxSRepair},
			func() BatchResult { return tableResult(ApproxSRepair(ds, tab)) },
			func(sv *Solver) BatchResult { return tableResult(sv.ApproxSRepair(ds, tab)) }},
		{"urepair", &Request{FDs: ds, Table: tab, Algorithm: AlgoOptimalURepair},
			func() BatchResult { return uResult(OptimalURepair(ds, tab)) },
			func(sv *Solver) BatchResult { return uResult(sv.OptimalURepair(ds, tab)) }},
		{"mpd", &Request{FDs: ds, Table: prob, Algorithm: AlgoMostProbable},
			func() BatchResult { return tableResult(MostProbableDatabase(ds, prob)) },
			func(sv *Solver) BatchResult { return tableResult(sv.MostProbableDatabase(ds, prob)) }},
		{"cfd", &Request{CFDs: cfds, Table: tab, Algorithm: AlgoCFDSRepair},
			func() BatchResult { return cfdResult(ApproxCFDSRepair(cfds, tab)) },
			func(sv *Solver) BatchResult { return cfdResult(sv.ApproxCFDSRepair(cfds, tab)) }},
		{"denial", &Request{Denial: dcs, Table: tab, Algorithm: AlgoDenialSRepair},
			func() BatchResult { return tableResult(ApproxDenialSRepair(dcs, tab)) },
			func(sv *Solver) BatchResult { return tableResult(sv.ApproxDenialSRepair(dcs, tab)) }},
		{"cqa", &Request{FDs: cqaDS, Table: cqaTab, Query: cqaQ, Algorithm: AlgoCQA},
			func() BatchResult { return cqaResult(ConsistentAnswers(cqaDS, cqaTab, cqaQ)) },
			func(sv *Solver) BatchResult { return cqaResult(sv.ConsistentAnswers(cqaDS, cqaTab, cqaQ)) }},
		{"priority", &Request{FDs: ds, Table: tab, Priority: rel, Algorithm: AlgoPriorityRepair},
			func() BatchResult { return prioResult(tab)(PrioritizedRepair(ds, tab, rel)) },
			func(sv *Solver) BatchResult { return prioResult(tab)(sv.PrioritizedRepair(ds, tab, rel)) }},
		{"auto", &Request{FDs: ds, Table: tab, Algorithm: AlgoAuto},
			func() BatchResult { return tableResult(OptimalSRepair(ds, tab)) },
			func(sv *Solver) BatchResult { return tableResult(sv.OptimalSRepair(ds, tab)) }},
		{"auto/hard", &Request{FDs: hardDS, Table: hardTab, Algorithm: AlgoAuto},
			func() BatchResult { return degraded(tableResult(ApproxSRepair(hardDS, hardTab))) },
			func(sv *Solver) BatchResult { return degraded(tableResult(sv.ApproxSRepair(hardDS, hardTab))) }},
		{"cfd/exact", nil,
			func() BatchResult { return cfdResult(ExactCFDSRepair(cfds, small)) },
			func(sv *Solver) BatchResult { return cfdResult(sv.ExactCFDSRepair(cfds, small)) }},
		{"denial/exact", nil,
			func() BatchResult { return tableResult(ExactDenialSRepair(smallDCs, small)) },
			func(sv *Solver) BatchResult { return tableResult(sv.ExactDenialSRepair(smallDCs, small)) }},
	}
	covered := map[Algorithm]bool{}
	for _, tc := range cases {
		want := render(tc.pkg())
		if got := render(tc.method(NewSolver())); got != want {
			t.Errorf("%s: Solver method differs from the package-level function:\n%s\nvs\n%s", tc.name, got, want)
		}
		if tc.req == nil {
			continue
		}
		covered[tc.req.Algorithm] = true
		if got := render(NewSolver().SolveBatch([]Request{*tc.req})[0]); got != want {
			t.Errorf("%s: SolveBatch differs from the package-level function:\n%s\nvs\n%s", tc.name, got, want)
		}
	}
	for _, a := range Algorithms() {
		if !covered[a] {
			t.Errorf("algorithm %v has no surface case", a)
		}
	}
	if ans, err := ConsistentAnswers(cqaDS, cqaTab, cqaQ); err != nil || ans.Repairs < 2 || len(ans.Certain) == 0 {
		t.Fatalf("200-row CQA: %+v, %v", ans, err)
	}
}

func uResult(u URepairResult, err error) BatchResult {
	if err != nil {
		return BatchResult{Err: err}
	}
	return BatchResult{Table: u.Update, Cost: u.Cost, URepair: &u}
}

func cfdResult(c CFDResult, err error) BatchResult {
	if err != nil {
		return BatchResult{Err: err}
	}
	return BatchResult{Table: c.Repair, Cost: c.TotalCost, CFD: &c}
}

func cqaResult(a *CQAAnswers, err error) BatchResult { return BatchResult{CQA: a, Err: err} }

func prioResult(in *Table) func(*Table, error) BatchResult {
	return func(rep *Table, err error) BatchResult {
		if err != nil {
			return BatchResult{Err: err}
		}
		return BatchResult{Table: rep, Cost: DistSub(rep, in)}
	}
}

func degraded(res BatchResult) BatchResult {
	res.Degraded = res.Err == nil
	return res
}

// TestConcurrentPackageLevelSolves: the package-level functions share
// one serial Solver; concurrent calls from many goroutines, over every
// algorithm they expose, are race-clean (run under -race) and
// byte-identical to a fresh Solver's answers.
func TestConcurrentPackageLevelSolves(t *testing.T) {
	ds, tab := solverTestInstance(300)
	cqaDS, cqaTab, cqaQ := cqaTestInstance()
	rel := NewPriority()
	solves := []func(sv *Solver) BatchResult{
		func(sv *Solver) BatchResult { return tableResult(sv.OptimalSRepair(ds, tab)) },
		func(sv *Solver) BatchResult { return uResult(sv.OptimalURepair(ds, tab)) },
		func(sv *Solver) BatchResult { return cqaResult(sv.ConsistentAnswers(cqaDS, cqaTab, cqaQ)) },
		func(sv *Solver) BatchResult { return prioResult(tab)(sv.PrioritizedRepair(ds, tab, rel)) },
	}
	pkg := []func() BatchResult{
		func() BatchResult { return tableResult(OptimalSRepair(ds, tab)) },
		func() BatchResult { return uResult(OptimalURepair(ds, tab)) },
		func() BatchResult { return cqaResult(ConsistentAnswers(cqaDS, cqaTab, cqaQ)) },
		func() BatchResult { return prioResult(tab)(PrioritizedRepair(ds, tab, rel)) },
	}
	want := make([]string, len(solves))
	for i, solve := range solves {
		want[i] = render(solve(NewSolver()))
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				i := (g + iter) % len(pkg)
				if got := render(pkg[i]()); got != want[i] {
					errc <- fmt.Errorf("goroutine %d: package-level solve %d diverged:\n%s\nvs\n%s", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentSolvers: many Solver instances with different
// parallelism settings run concurrently (several goroutines per
// solver, all over one shared backing table) and every result is
// byte-identical to the serial engine. Under -race this is the proof
// that no shared mutable state remains on the solve hot path.
func TestConcurrentSolvers(t *testing.T) {
	ds, tab := solverTestInstance(1200)
	want, wantCost, err := OptimalSRepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	wantU, err := OptimalURepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for _, workers := range []int{1, 2, 4, 8} {
		sv := NewSolver(WithParallelism(workers), WithStats())
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(sv *Solver, workers int) {
				defer wg.Done()
				for iter := 0; iter < 3; iter++ {
					got, cost, err := sv.OptimalSRepair(ds, tab)
					if err != nil {
						errc <- err
						return
					}
					if cost != wantCost || got.Len() != want.Len() || !got.IsSubsetOf(want) {
						errc <- fmt.Errorf("workers=%d: repair diverged from serial", workers)
						return
					}
					res, err := sv.OptimalURepair(ds, tab)
					if err != nil {
						errc <- err
						return
					}
					if res.Cost != wantU.Cost {
						errc <- fmt.Errorf("workers=%d: urepair cost %v != %v", workers, res.Cost, wantU.Cost)
						return
					}
				}
			}(sv, workers)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestCancelBeforeSolve: a Solver whose context is already cancelled
// refuses the solve immediately with context.Canceled, for every entry
// point.
func TestCancelBeforeSolve(t *testing.T) {
	ds, tab := solverTestInstance(400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sv := NewSolver(WithContext(ctx))
	if _, _, err := sv.OptimalSRepair(ds, tab); !errors.Is(err, context.Canceled) {
		t.Fatalf("OptimalSRepair err = %v, want context.Canceled", err)
	}
	if _, err := sv.OptimalURepair(ds, tab); !errors.Is(err, context.Canceled) {
		t.Fatalf("OptimalURepair err = %v, want context.Canceled", err)
	}
	if _, _, err := sv.ApproxSRepair(ds, tab); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApproxSRepair err = %v, want context.Canceled", err)
	}
	if _, _, err := sv.ExactSRepair(ds, tab); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExactSRepair err = %v, want context.Canceled", err)
	}
}

// TestCancelMidRecursion: cancelling a running solve makes it return
// the context error promptly, and the backing table comes out of the
// aborted solve unscathed — a subsequent serial solve still produces
// the reference repair.
func TestCancelMidRecursion(t *testing.T) {
	ds, tab := solverTestInstance(6400)
	want, wantCost, err := OptimalSRepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	sawCancel := false
	for iter := 0; iter < 20 && !sawCancel; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		sv := NewSolver(WithContext(ctx), WithParallelism(4))
		timer := time.AfterFunc(time.Duration(iter)*100*time.Microsecond, cancel)
		_, _, err := sv.OptimalSRepair(ds, tab)
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			// The solve outran the cancel — legal; try a later cancel point.
		case errors.Is(err, context.Canceled):
			sawCancel = true
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if !sawCancel {
		t.Log("no iteration observed a mid-flight cancel (machine too fast); pre-cancel path is covered by TestCancelBeforeSolve")
	}
	// Whatever was aborted above, the table must be intact: the serial
	// engine still reproduces the reference repair bit for bit.
	got, cost, err := OptimalSRepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	if cost != wantCost {
		t.Fatalf("post-cancel cost %v != %v", cost, wantCost)
	}
	sameRepair(t, want, got)
}

// TestCancelDeadline: a deadline in the past surfaces as
// context.DeadlineExceeded (the distinction matters to callers doing
// per-request budgeting).
func TestCancelDeadline(t *testing.T) {
	ds, tab := solverTestInstance(400)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sv := NewSolver(WithContext(ctx))
	if _, _, err := sv.OptimalSRepair(ds, tab); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSolverStats: counters accumulate across solves and reset.
func TestSolverStats(t *testing.T) {
	ds, tab := solverTestInstance(400)
	sv := NewSolver(WithStats())
	if st := sv.Stats(); st.Nodes != 0 {
		t.Fatalf("fresh solver has nodes = %d", st.Nodes)
	}
	if _, _, err := sv.OptimalSRepair(ds, tab); err != nil {
		t.Fatal(err)
	}
	st1 := sv.Stats()
	if st1.Nodes == 0 || st1.BlocksSerial == 0 {
		t.Fatalf("stats not collected: %+v", st1)
	}
	if st1.MatcherFastPath+st1.MatcherDense+st1.MatcherSparse == 0 {
		t.Fatalf("marriage instance recorded no matcher dispatches: %+v", st1)
	}
	if _, _, err := sv.OptimalSRepair(ds, tab); err != nil {
		t.Fatal(err)
	}
	st2 := sv.Stats()
	if st2.Nodes != 2*st1.Nodes {
		t.Fatalf("nodes after two identical solves = %d, want %d", st2.Nodes, 2*st1.Nodes)
	}
	// The second solve should have been served (partly) from the arena
	// the first one warmed up.
	if st2.ArenaHits <= st1.ArenaHits {
		t.Fatalf("arena hits did not grow: %+v -> %+v", st1, st2)
	}
	sv.ResetStats()
	if st := sv.Stats(); st.Nodes != 0 || st.ArenaHits != 0 {
		t.Fatalf("reset left %+v", st)
	}
	// A stats-less solver reports zeros and must not panic.
	plain := NewSolver()
	if _, _, err := plain.OptimalSRepair(ds, tab); err != nil {
		t.Fatal(err)
	}
	if st := plain.Stats(); st != (SolveStats{}) {
		t.Fatalf("stats-less solver reported %+v", st)
	}
}

// TestSolverParallelism: option plumbing.
// TestSolverParallelism pins the clamp semantics of WithParallelism:
// 0 and negative values mean serial — explicitly clamped in NewSolver,
// not silently dropped by a `workers > 1` gate — and Parallelism
// reports the clamped value the solver actually runs with. Each
// clamped solver must still solve correctly.
func TestSolverParallelism(t *testing.T) {
	if got := NewSolver().Parallelism(); got != 1 {
		t.Fatalf("default parallelism = %d", got)
	}
	ds, tab := solverTestInstance(120)
	want, wantCost, err := OptimalSRepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {-1, 1}, {-3, 1}, {1, 1}, {8, 8},
	} {
		sv := NewSolver(WithParallelism(tc.in))
		if got := sv.Parallelism(); got != tc.want {
			t.Fatalf("WithParallelism(%d).Parallelism() = %d, want %d", tc.in, got, tc.want)
		}
		got, cost, err := sv.OptimalSRepair(ds, tab)
		if err != nil {
			t.Fatalf("WithParallelism(%d): %v", tc.in, err)
		}
		if cost != wantCost {
			t.Fatalf("WithParallelism(%d): cost %v != %v", tc.in, cost, wantCost)
		}
		sameRepair(t, want, got)
	}
}
