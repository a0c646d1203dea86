package denial

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
// byte-identically — same conflict edges, same repair rows in the same
// order — at every worker count, across equality-only constraints
// (FD translations), order constraints over numeric columns, and
// mixed numeric/string tables that stress the value-comparison rules.

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

// mixedTable draws cells that are randomly numeric or plain strings, so
// comparisons exercise both the numeric and the lexicographic path of
// the value ordering.
func mixedTable(sc *schema.Schema, n int, rng *rand.Rand) *table.Table {
	tuples := make([]table.Tuple, n)
	weights := make([]float64, n)
	for i := range tuples {
		tup := make(table.Tuple, sc.Arity())
		for c := range tup {
			if rng.Intn(2) == 0 {
				tup[c] = fmt.Sprintf("%d", rng.Intn(12))
			} else {
				tup[c] = fmt.Sprintf("s%d", rng.Intn(4))
			}
		}
		tuples[i] = tup
		weights[i] = float64(1 + rng.Intn(4))
	}
	t := table.New(sc)
	t.MustAppendRows(tuples, weights)
	return t
}

func randomConstraints(t *testing.T, sc *schema.Schema, rng *rand.Rand) []*Constraint {
	t.Helper()
	var cs []*Constraint
	switch rng.Intn(3) {
	case 0:
		ds := fd.MustParseSet(sc, "A -> B")
		if rng.Intn(2) == 0 {
			ds = fd.MustParseSet(sc, "A -> B", "B -> C")
		}
		fds, err := FromFDSet(ds)
		if err != nil {
			t.Fatalf("FD translation: %v", err)
		}
		cs = fds
	case 1:
		c, err := Parse(sc, "t1.A = t2.A & t1.B < t2.B & t1.C > t2.C")
		if err != nil {
			t.Fatalf("parsing order constraint: %v", err)
		}
		cs = []*Constraint{c}
	default:
		c1, err := Parse(sc, "t1.B < t2.B & t1.C > t2.C")
		if err != nil {
			t.Fatalf("parsing join-free constraint: %v", err)
		}
		c2, err := Parse(sc, "t1.A = t2.A & t1.C != t2.C")
		if err != nil {
			t.Fatalf("parsing inequation constraint: %v", err)
		}
		cs = []*Constraint{c1, c2}
	}
	return cs
}

func randomDenialTable(sc *schema.Schema, maxN int, rng *rand.Rand) *table.Table {
	n := rng.Intn(maxN + 1)
	switch rng.Intn(3) {
	case 0:
		return workload.RankedTable(sc, n, 1+rng.Intn(5), 1+rng.Intn(8), rng)
	case 1:
		return workload.RandomTable(sc, n, 1+rng.Intn(4), rng)
	default:
		return mixedTable(sc, n, rng)
	}
}

func TestDifferentialDenialConflictGraph(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 30; trial++ {
		tab := randomDenialTable(sc, 160, rng)
		cs := randomConstraints(t, sc, rng)
		want := ConflictGraph(cs, tab)
		for _, w := range diffWorkers {
			got, err := ConflictGraphCtx(solve.New(w, nil, nil), cs, tab)
			if err != nil {
				t.Fatalf("trial %d workers=%d: encoded conflict graph: %v", trial, w, err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("trial %d workers=%d: %d edges, oracle %d: got %v, oracle %v",
					trial, w, len(got), len(want), got, want)
			}
		}
	}
}

func TestDifferentialDenialApprox(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	check := func(label string, tab *table.Table, cs []*Constraint) {
		want, err := Approx2SRepair(cs, tab)
		if err != nil {
			t.Fatalf("%s: seed approx: %v", label, err)
		}
		for _, w := range diffWorkers {
			got, err := Approx2SRepairCtx(solve.New(w, nil, nil), cs, tab)
			if err != nil {
				t.Fatalf("%s workers=%d: encoded approx: %v", label, w, err)
			}
			sameTables(t, label+": approx repair", want, got)
		}
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		tab := randomDenialTable(sc, 160, rng)
		check(fmt.Sprintf("trial %d", trial), tab, randomConstraints(t, sc, rng))
	}
	tab, cs := shuffledDenialInput(t, sc, 160, 54)
	check("shuffled ids", tab, cs)
}

func TestDifferentialDenialExact(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	check := func(label string, tab *table.Table, cs []*Constraint) {
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
			sameTables(t, label+": exact repair", want, got)
		}
	}
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		tab := randomDenialTable(sc, 40, rng)
		check(fmt.Sprintf("trial %d", trial), tab, randomConstraints(t, sc, rng))
	}
	tab, cs := shuffledDenialInput(t, sc, 40, 60)
	check("shuffled ids", tab, cs)
}

// shuffledDenialInput is an n-row mixed numeric and string table whose
// ids do not ascend with row position, and constraints over it.
func shuffledDenialInput(t *testing.T, sc *schema.Schema, n int, seed int64) (*table.Table, []*Constraint) {
	rng := rand.New(rand.NewSource(seed))
	tab := workload.ShuffledIDs(mixedTable(sc, n, rng), rng)
	return tab, randomConstraints(t, sc, rng)
}
