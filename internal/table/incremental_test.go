package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fd"
	"repro/internal/schema"
)

// checkEncodingCanonical asserts the incrementally maintained encoding
// is observably identical to a from-scratch build: same GroupBy output
// (keys and ids, canonical order) and same RowGroups for every tested
// attribute set, and agreeing duplicate-freeness.
func checkEncodingCanonical(t *testing.T, tab *Table, sets []schema.AttrSet, step string) {
	t.Helper()
	fresh := tab.Clone() // drops the encoding; rebuilds canonically
	for _, attrs := range sets {
		if got, want := tab.GroupBy(attrs), fresh.GroupBy(attrs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: GroupBy(%v) diverged from fresh build\ngot  %v\nwant %v", step, attrs, got, want)
		}
		if got, want := tab.RowGroups(attrs), fresh.RowGroups(attrs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RowGroups(%v) diverged from fresh build\ngot  %v\nwant %v", step, attrs, got, want)
		}
	}
	if got, want := tab.IsDuplicateFree(), fresh.IsDuplicateFree(); got != want {
		t.Fatalf("%s: IsDuplicateFree = %v, fresh build says %v", step, got, want)
	}
}

func incrementalTestSets(sc *schema.Schema) []schema.AttrSet {
	return []schema.AttrSet{
		schema.Singleton(0),
		schema.Singleton(1),
		schema.Singleton(0).Add(1),
		schema.Singleton(1).Add(2),
		sc.AllAttrs(),
	}
}

// TestIncrementalAppendMatchesFreshBuild drives random append batches
// through AppendRowsIncremental with the encoding alive and checks it
// against from-scratch builds after every batch — including brand-new
// dictionary values that force packed key widths to overflow.
func TestIncrementalAppendMatchesFreshBuild(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	tab := New(sc)
	rng := rand.New(rand.NewSource(11))
	sets := incrementalTestSets(sc)
	domain := 3 // small start: few codes, narrow packed widths
	tab.MustAppendRows([]Tuple{{"v0", "v0", "v1"}, {"v1", "v2", "v0"}}, nil)
	for step := 0; step < 25; step++ {
		// Touch the encoding so there is something to extend.
		for _, attrs := range sets {
			tab.RowGroups(attrs)
		}
		k := 1 + rng.Intn(6)
		tuples := make([]Tuple, k)
		for i := range tuples {
			tup := make(Tuple, 3)
			for a := range tup {
				// Growing domain: every few steps new values appear, doubling
				// dictionaries until packed key widths overflow and the
				// projection rebuild path runs.
				tup[a] = fmt.Sprintf("v%d", rng.Intn(domain))
			}
			tuples[i] = tup
		}
		domain += 2
		if _, err := tab.AppendRowsIncremental(tuples, nil); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkEncodingCanonical(t, tab, sets, fmt.Sprintf("step %d", step))
	}
}

// TestIncrementalSetCellsMatchesFreshBuild drives random cell-update
// batches through SetCellsIncremental: codes go stale (holes, order
// divergence) while RowGroups must stay canonical.
func TestIncrementalSetCellsMatchesFreshBuild(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	tab := New(sc)
	rng := rand.New(rand.NewSource(5))
	sets := incrementalTestSets(sc)
	tuples := make([]Tuple, 60)
	for i := range tuples {
		tuples[i] = Tuple{
			fmt.Sprintf("v%d", rng.Intn(5)),
			fmt.Sprintf("v%d", rng.Intn(5)),
			fmt.Sprintf("v%d", rng.Intn(5)),
		}
	}
	tab.MustAppendRows(tuples, nil)
	ids := tab.IDs()
	for step := 0; step < 25; step++ {
		for _, attrs := range sets {
			tab.RowGroups(attrs)
		}
		k := 1 + rng.Intn(5)
		updates := make([]CellUpdate, k)
		for i := range updates {
			updates[i] = CellUpdate{
				ID:   ids[rng.Intn(len(ids))],
				Attr: rng.Intn(3),
				Val:  fmt.Sprintf("v%d", rng.Intn(5+step)), // occasionally new
			}
		}
		if err := tab.SetCellsIncremental(updates); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkEncodingCanonical(t, tab, sets, fmt.Sprintf("step %d", step))
	}
}

// TestIncrementalMutatorsValidate pins the all-or-nothing error paths.
func TestIncrementalMutatorsValidate(t *testing.T) {
	sc := schema.MustNew("R", "A", "B")
	tab := New(sc)
	tab.MustAppendRows([]Tuple{{"x", "y"}}, nil)
	tab.RowGroups(sc.AllAttrs())
	if _, err := tab.AppendRowsIncremental([]Tuple{{"only-one-attr"}}, nil); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if err := tab.SetCellsIncremental([]CellUpdate{{ID: 99, Attr: 0, Val: "z"}}); err == nil {
		t.Fatal("unknown id must fail")
	}
	if err := tab.SetCellsIncremental([]CellUpdate{{ID: 1, Attr: 5, Val: "z"}}); err == nil {
		t.Fatal("attr out of range must fail")
	}
	if tab.Len() != 1 || tab.Rows()[0].Tuple[0] != "x" {
		t.Fatalf("failed mutations must leave the table unchanged: %v", tab.String())
	}
	checkEncodingCanonical(t, tab, incrementalTestSets(sc)[:3], "after-errors")
}

// TestIncrementalColdEncoding: incremental mutators on a table whose
// encoding was never built degrade to the plain mutators (encoding
// builds canonically on first use afterwards).
func TestIncrementalColdEncoding(t *testing.T) {
	sc := schema.MustNew("R", "A", "B")
	tab := New(sc)
	if _, err := tab.AppendRowsIncremental([]Tuple{{"a", "b"}, {"a", "c"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetCellsIncremental([]CellUpdate{{ID: 2, Attr: 1, Val: "b"}}); err != nil {
		t.Fatal(err)
	}
	checkEncodingCanonical(t, tab, incrementalTestSets(sc)[:3], "cold")
	if tab.IsDuplicateFree() {
		t.Fatal("rows 1 and 2 are now duplicates")
	}
}

// TestDirtyDictionaryEstimateAndCardinality: after updates erase a
// value's last carrier, the dictionary retains it — the projection's
// code space keeps every value ever seen, while the live grouping
// counts only the values rows still carry.
func TestDirtyDictionaryEstimateAndCardinality(t *testing.T) {
	sc := schema.MustNew("R", "A", "B")
	tab := New(sc)
	tab.MustAppendRows([]Tuple{{"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"}}, nil)
	tab.RowGroups(schema.Singleton(0))

	// Collapse every A value onto a fresh one: dictionary now holds 4
	// codes, but only one is live.
	var updates []CellUpdate
	for _, id := range tab.IDs() {
		updates = append(updates, CellUpdate{ID: id, Attr: 0, Val: "a9"})
	}
	if err := tab.SetCellsIncremental(updates); err != nil {
		t.Fatal(err)
	}
	if _, bound := tab.ProjectionCodes(schema.Singleton(0)); bound != 4 {
		t.Fatalf("retained dictionary bound = %d; want 4", bound)
	}
	if got := len(tab.RowGroups(schema.Singleton(0))); got != 1 {
		t.Fatalf("live groups = %d; want 1", got)
	}
	checkEncodingCanonical(t, tab, incrementalTestSets(sc)[:3], "collapsed")
}

// TestImpactViolationTuples pins FDViolationTuples on a hand-checked
// instance: tuples in lhs groups carrying ≥ 2 distinct rhs values.
func TestImpactViolationTuples(t *testing.T) {
	sc := schema.MustNew("R", "A", "B")
	f := fd.MustParseSet(sc, "A -> B").FDAt(0)
	tab := New(sc)
	tab.MustAppendRows([]Tuple{
		{"a1", "b1"}, {"a1", "b2"}, {"a1", "b1"}, // violating group: 3 tuples
		{"a2", "b1"}, {"a2", "b1"}, // consistent group
		{"a3", "b9"}, // singleton
	}, nil)
	if got := tab.FDViolationTuples(f); got != 3 {
		t.Fatalf("violation tuples = %d; want 3", got)
	}
	// Repairing the violating group clears it.
	if err := tab.SetCellsIncremental([]CellUpdate{{ID: 2, Attr: 1, Val: "b1"}}); err != nil {
		t.Fatal(err)
	}
	if got := tab.FDViolationTuples(f); got != 0 {
		t.Fatalf("violation tuples after fix = %d; want 0", got)
	}
}
