package cfd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/table"
	"repro/internal/workload"
)

// The encoded engine must reproduce the seed implementation
// byte-identically: same repair rows in the same order, same forced
// list, same costs — at every worker count. The seed path stays in the
// tree exactly to serve as this oracle.

var diffWorkers = []int{1, 2, 4, 8}

func sameTables(t *testing.T, label string, want, got *table.Table) {
	t.Helper()
	wr, gr := want.Rows(), got.Rows()
	if len(wr) != len(gr) {
		t.Fatalf("%s: %d rows, oracle has %d", label, len(gr), len(wr))
	}
	for i := range wr {
		if wr[i].ID != gr[i].ID || wr[i].Weight != gr[i].Weight ||
			!reflect.DeepEqual(wr[i].Tuple, gr[i].Tuple) {
			t.Fatalf("%s: row %d diverges: got %+v, oracle %+v", label, i, gr[i], wr[i])
		}
	}
}

// randomCFDs draws 1..3 CFDs over sc whose pattern constants are
// sampled from the table's own cells, so patterns actually select rows.
func randomCFDs(t *testing.T, sc *schema.Schema, tab *table.Table, rng *rand.Rand) []*CFD {
	t.Helper()
	pick := func(attr int) table.Value {
		rows := tab.Rows()
		if len(rows) == 0 {
			return "z"
		}
		return rows[rng.Intn(len(rows))].Tuple[attr]
	}
	n := 1 + rng.Intn(3)
	cs := make([]*CFD, 0, n)
	for i := 0; i < n; i++ {
		var lhs schema.AttrSet
		lhs = lhs.Add(rng.Intn(sc.Arity() - 1))
		if rng.Intn(2) == 0 {
			lhs = lhs.Add(rng.Intn(sc.Arity() - 1))
		}
		rhsAttr := sc.Arity() - 1
		f := fd.FD{LHS: lhs, RHS: schema.AttrSet(0).Add(rhsAttr)}
		lhsPat := make([]table.Value, 0, lhs.Len())
		for _, p := range lhs.Positions() {
			if rng.Intn(2) == 0 {
				lhsPat = append(lhsPat, Wildcard)
			} else {
				lhsPat = append(lhsPat, pick(p))
			}
		}
		rhsPat := table.Value(Wildcard)
		if rng.Intn(3) == 0 {
			rhsPat = pick(rhsAttr)
		}
		c, err := New(sc, f, lhsPat, rhsPat)
		if err != nil {
			t.Fatalf("building CFD: %v", err)
		}
		cs = append(cs, c)
	}
	return cs
}

func randomCFDTable(sc *schema.Schema, maxN int, rng *rand.Rand) *table.Table {
	n := rng.Intn(maxN + 1)
	if rng.Intn(2) == 0 {
		return workload.CFDTable(sc, n, 1+rng.Intn(5), 1+rng.Intn(3), 1+rng.Intn(3), rng)
	}
	return workload.RandomTable(sc, n, 1+rng.Intn(4), rng)
}

func TestDifferentialCFDApprox(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	check := func(label string, tab *table.Table, cs []*CFD) {
		want, err := Approx2SRepair(cs, tab)
		if err != nil {
			t.Fatalf("%s: seed approx: %v", label, err)
		}
		for _, w := range diffWorkers {
			got, err := Approx2SRepairCtx(solve.New(w, nil, nil), cs, tab)
			if err != nil {
				t.Fatalf("%s workers=%d: encoded approx: %v", label, w, err)
			}
			if !reflect.DeepEqual(got.Forced, want.Forced) ||
				got.ForcedCost != want.ForcedCost || got.TotalCost != want.TotalCost {
				t.Fatalf("%s workers=%d: accounting diverges: got %+v, oracle %+v",
					label, w, got, want)
			}
			sameTables(t, label+": approx repair", want.Repair, got.Repair)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		tab := randomCFDTable(sc, 240, rng)
		check(fmt.Sprintf("trial %d", trial), tab, randomCFDs(t, sc, tab, rng))
	}
	tab, cs := shuffledCFDInput(t, sc, 240, 42)
	check("shuffled ids", tab, cs)
}

func TestDifferentialCFDExact(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	check := func(label string, tab *table.Table, cs []*CFD) {
		want, wantErr := ExactSRepair(cs, tab)
		for _, w := range diffWorkers {
			got, err := ExactSRepairCtx(solve.New(w, nil, nil), cs, tab)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s workers=%d: error mismatch: got %v, oracle %v",
					label, w, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(got.Forced, want.Forced) ||
				got.ForcedCost != want.ForcedCost || got.TotalCost != want.TotalCost {
				t.Fatalf("%s workers=%d: accounting diverges: got %+v, oracle %+v",
					label, w, got, want)
			}
			sameTables(t, label+": exact repair", want.Repair, got.Repair)
		}
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		tab := randomCFDTable(sc, 48, rng)
		check(fmt.Sprintf("trial %d", trial), tab, randomCFDs(t, sc, tab, rng))
	}
	tab, cs := shuffledCFDInput(t, sc, 48, 44)
	check("shuffled ids", tab, cs)
}

// shuffledCFDInput is an n-row pattern table whose ids do not ascend
// with row position, and CFDs over it.
func shuffledCFDInput(t *testing.T, sc *schema.Schema, n int, seed int64) (*table.Table, []*CFD) {
	rng := rand.New(rand.NewSource(seed))
	tab := workload.ShuffledIDs(workload.CFDTable(sc, n, 4, 2, 2, rng), rng)
	return tab, randomCFDs(t, sc, tab, rng)
}
