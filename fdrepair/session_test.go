package fdrepair

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// sessionFDSets returns the tractable FD sets the session differential
// suite runs scripts against, covering all three simplification kinds
// at the top of the chain.
func sessionFDSets() map[string]*FDSet {
	return workload.TractableSets()
}

// mutateSession applies one random mutation step to the session and
// mirrors it (by value) so the reference table can be rebuilt: a batch
// append of 1–8 rows, or 1–8 cell updates drawing from the original
// domain plus occasional never-seen values (growing the dictionaries,
// eventually overflowing packed key widths).
func mutateSession(t *testing.T, s *Session, rng *rand.Rand, domain int) {
	t.Helper()
	val := func() string {
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("new%d", rng.Intn(4*domain))
		}
		return fmt.Sprintf("v%d", rng.Intn(domain))
	}
	arity := s.Table().Schema().Arity()
	if rng.Intn(2) == 0 {
		k := 1 + rng.Intn(8)
		tuples := make([]Tuple, k)
		weights := make([]float64, k)
		for i := range tuples {
			tup := make(Tuple, arity)
			for a := range tup {
				tup[a] = val()
			}
			tuples[i] = tup
			weights[i] = float64(1 + rng.Intn(4))
		}
		if _, err := s.AppendRows(tuples, weights); err != nil {
			t.Fatalf("AppendRows: %v", err)
		}
		return
	}
	ids := s.Table().IDs()
	k := 1 + rng.Intn(8)
	updates := make([]CellUpdate, k)
	for i := range updates {
		updates[i] = CellUpdate{
			ID:   ids[rng.Intn(len(ids))],
			Attr: rng.Intn(arity),
			Val:  val(),
		}
	}
	if err := s.SetCells(updates); err != nil {
		t.Fatalf("SetCells: %v", err)
	}
}

// checkSessionMatchesColdSolve asserts the session's incremental
// repair is byte-identical (rendered table and exact cost) to a
// from-scratch solve of a clone of the current table on a fresh
// serial solver — and to a cold solve over the session's own live
// (incrementally extended) encoding.
func checkSessionMatchesColdSolve(t *testing.T, s *Session, step string) {
	t.Helper()
	got, gotCost, err := s.Repair()
	if err != nil {
		t.Fatalf("%s: Session.Repair: %v", step, err)
	}
	ref := NewSolver()
	want, wantCost, err := ref.OptimalSRepair(s.FDs(), s.Table().Clone())
	if err != nil {
		t.Fatalf("%s: reference solve: %v", step, err)
	}
	if got.String() != want.String() || gotCost != wantCost {
		t.Fatalf("%s: incremental repair diverged from cold solve\ncost %v vs %v\ngot:\n%swant:\n%s",
			step, gotCost, wantCost, got.String(), want.String())
	}
	// The live encoding (chunk-extended, possibly with code holes) must
	// solve identically to the fresh canonical build above.
	live, liveCost, err := ref.OptimalSRepair(s.FDs(), s.Table())
	if err != nil {
		t.Fatalf("%s: cold solve on live table: %v", step, err)
	}
	if live.String() != want.String() || liveCost != wantCost {
		t.Fatalf("%s: cold solve over the extended encoding diverged\ncost %v vs %v\ngot:\n%swant:\n%s",
			step, liveCost, wantCost, live.String(), want.String())
	}
}

// TestSessionDifferentialRandomScripts is the pinning suite: random
// mutation scripts against every tractable FD set at several worker
// counts, each Repair compared byte-for-byte with a from-scratch
// solve. Run under -race in CI.
func TestSessionDifferentialRandomScripts(t *testing.T) {
	const domain = 12
	for name, ds := range sessionFDSets() {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(workers)*1000 + int64(len(name))))
				tab := workload.RandomWeightedTable(ds.Schema(), 300, domain, 4, rng)
				s, err := NewSession(NewSolver(WithParallelism(workers)), ds, tab)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				checkSessionMatchesColdSolve(t, s, "initial")
				for step := 0; step < 12; step++ {
					mutateSession(t, s, rng, domain)
					checkSessionMatchesColdSolve(t, s, fmt.Sprintf("step %d", step))
				}
			})
		}
	}
}

// TestSessionDirtyFallbackPaths pins the fallback trigger: a dirty
// fraction above the threshold must run a full solve, byte-identical
// to from-scratch.
func TestSessionDirtyFallbackPaths(t *testing.T) {
	ds := sessionFDSets()["marriage"]
	rng := rand.New(rand.NewSource(42))
	tab := workload.RandomWeightedTable(ds.Schema(), 200, 10, 4, rng)

	s, err := NewSession(NewSolver(WithParallelism(4)), ds, tab)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "seed")
	if !s.Stats().FullSolve {
		t.Fatalf("first repair must be a full solve: %+v", s.Stats())
	}

	// Touch well over the default 30% threshold.
	ids := s.Table().IDs()
	var updates []CellUpdate
	for i := 0; i < 150; i++ {
		updates = append(updates, CellUpdate{ID: ids[rng.Intn(len(ids))], Attr: rng.Intn(3), Val: fmt.Sprintf("v%d", rng.Intn(10))})
	}
	if err := s.SetCells(updates); err != nil {
		t.Fatalf("SetCells: %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "high-dirty")
	if st := s.Stats(); !st.FullSolve || st.BlocksReused != 0 {
		t.Fatalf("high dirty fraction must trigger the full-solve fallback: %+v", st)
	}
}

// TestSessionIncrementalReusesCleanBlocks asserts the perf-defining
// property: after a tiny mutation, Repair re-solves only the touched
// blocks and splices the rest from cache.
func TestSessionIncrementalReusesCleanBlocks(t *testing.T) {
	ds := sessionFDSets()["chain"]
	rng := rand.New(rand.NewSource(7))
	tab := workload.RandomWeightedTable(ds.Schema(), 400, 40, 4, rng)
	s, err := NewSession(NewSolver(WithParallelism(2)), ds, tab)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "seed")
	blocks := s.Stats().Blocks
	if blocks < 10 {
		t.Fatalf("want a many-block instance, got %d blocks", blocks)
	}
	if _, err := s.AppendRows([]Tuple{{"v0", "v1", "v2"}}, nil); err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "append-1")
	st := s.Stats()
	if st.FullSolve {
		t.Fatalf("1-row append must not trigger a full solve: %+v", st)
	}
	if st.BlocksSolved > 2 || st.BlocksReused < blocks-2 {
		t.Fatalf("1-row append should re-solve at most its own block(s): %+v", st)
	}
	if st.DirtyRows != 1 {
		t.Fatalf("dirty-row accounting: %+v", st)
	}
}

// TestSessionSetFDsDropsCache pins the FD-set-change path: replacing
// the set forces a full re-solve under the new chain, while setting an
// equal set keeps the cache warm.
func TestSessionSetFDsDropsCache(t *testing.T) {
	sets := sessionFDSets()
	rng := rand.New(rand.NewSource(3))
	tab := workload.RandomWeightedTable(sets["chain"].Schema(), 250, 10, 4, rng)
	s, err := NewSession(NewSolver(WithParallelism(4)), sets["chain"], tab)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "chain-seed")

	// Equal set (fresh but identical value): caches stay valid.
	equal := workload.TractableSets()["chain"]
	if err := s.SetFDs(equal); err != nil {
		t.Fatalf("SetFDs(equal): %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "equal-set")
	if st := s.Stats(); st.FullSolve || st.BlocksReused == 0 {
		t.Fatalf("equal FD set must keep the block cache: %+v", st)
	}

	// Different set: new chain, new partition, full solve.
	if err := s.SetFDs(sets["marriage"]); err != nil {
		t.Fatalf("SetFDs(marriage): %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "marriage-after-switch")
	if st := s.Stats(); !st.FullSolve {
		t.Fatalf("FD-set change must force a full solve: %+v", st)
	}
	// And incremental solves resume under the new set.
	if _, err := s.AppendRows([]Tuple{{"x", "y", "z"}}, nil); err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "append-after-switch")
	if st := s.Stats(); st.FullSolve {
		t.Fatalf("session must return to incremental repairs after the switch: %+v", st)
	}
}

// TestSessionTrivialAndHardSets covers the no-block-structure edges:
// a trivial FD set repairs to the table itself at zero cost, and a
// hard set fails with ErrNoSimplification without corrupting session
// state.
func TestSessionTrivialAndHardSets(t *testing.T) {
	sc := MustSchema("R", "A", "B", "C")
	trivial := MustFDs(sc, "A -> A")
	tab := workload.RandomTable(sc, 50, 5, rand.New(rand.NewSource(1)))
	s, err := NewSession(NewSolver(), trivial, tab)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	rep, cost, err := s.Repair()
	if err != nil || cost != 0 || rep.String() != s.Table().String() {
		t.Fatalf("trivial set: rep/cost/err = %v/%v/%v", rep != nil, cost, err)
	}

	hard := workload.HardSets()["ΔA→B→C"]
	if err := s.SetFDs(hard); err != nil {
		t.Fatalf("SetFDs(hard): %v", err)
	}
	if _, _, err := s.Repair(); err != ErrNoSimplification {
		t.Fatalf("hard set: want ErrNoSimplification, got %v", err)
	}
	// Recover by switching back to a tractable set.
	if err := s.SetFDs(workload.TractableSets()["chain"]); err != nil {
		t.Fatalf("SetFDs(chain): %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "recovered")
}

// TestSessionEmptyTable covers the n=0 edge through the session path.
func TestSessionEmptyTable(t *testing.T) {
	ds := sessionFDSets()["chain"]
	s, err := NewSession(NewSolver(), ds, NewTable(ds.Schema()))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	rep, cost, err := s.Repair()
	if err != nil || cost != 0 || rep.Len() != 0 {
		t.Fatalf("empty table: len/cost/err = %v/%v/%v", rep.Len(), cost, err)
	}
	// Grow from empty and keep matching cold solves.
	if _, err := s.AppendRows([]Tuple{{"a", "b", "c"}, {"a", "b2", "c"}}, []float64{2, 1}); err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	checkSessionMatchesColdSolve(t, s, "grown-from-empty")
}

// TestSessionImpactReport exercises WithImpactRecording: per-FD
// violation counts must drop to zero after a repair, block accounting
// must cover the whole table, and cells-changed must equal deleted
// rows times arity.
func TestSessionImpactReport(t *testing.T) {
	_, ds, tab := workload.Office()
	s, err := NewSession(NewSolver(), ds, tab, WithImpactRecording())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if s.LastImpact() != nil {
		t.Fatalf("impact before any repair")
	}
	rep, cost, err := s.Repair()
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	im := s.LastImpact()
	if im == nil {
		t.Fatalf("no impact recorded")
	}
	if im.Cost != cost {
		t.Fatalf("impact cost %v != repair cost %v", im.Cost, cost)
	}
	totalRows, totalKept, totalCells := 0, 0, 0
	for _, b := range im.Blocks {
		totalRows += b.Rows
		totalKept += b.Kept
		totalCells += b.CellsChanged
	}
	if totalRows != s.Table().Len() || totalKept != rep.Len() {
		t.Fatalf("block accounting: rows %d/%d kept %d/%d", totalRows, s.Table().Len(), totalKept, rep.Len())
	}
	arity := s.Table().Schema().Arity()
	if totalCells != (totalRows-totalKept)*arity {
		t.Fatalf("cells changed %d, want %d", totalCells, (totalRows-totalKept)*arity)
	}
	for _, v := range im.Violations {
		if v.Before == 0 {
			t.Fatalf("Office table must start with violations: %+v", v)
		}
		if v.After != 0 {
			t.Fatalf("repair must clear all violations: %+v", v)
		}
	}
}
