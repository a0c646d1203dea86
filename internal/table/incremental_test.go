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

// wideTable returns a five-attribute table of 10,000 rows whose every
// attribute carries 8,192 distinct values or more, so the five value
// codes of a row need 5 × 13 = 65 bits together: more than a uint64
// packing of them holds. Every fifth row past the first 8,192 repeats
// an earlier one, so the projections also hold groups of several rows.
func wideTable(rng *rand.Rand) *Table {
	const distinct = 8192
	tab := New(schema.MustNew("W", "A", "B", "C", "D", "E"))
	tuples := make([]Tuple, 10000)
	for i := range tuples {
		if i >= distinct && i%5 == 0 {
			tuples[i] = tuples[rng.Intn(i)].Clone()
			continue
		}
		tup := make(Tuple, 5)
		for a := range tup {
			v := rng.Intn(2 * distinct)
			if i < distinct {
				v = (i*(2*a+1) + a) % distinct // a permutation of [0, distinct)
			}
			tup[a] = fmt.Sprintf("v%d", v)
		}
		tuples[i] = tup
	}
	tab.MustAppendRows(tuples, nil)
	return tab
}

// TestIncrementalAppendMatchesFreshBuild drives random append batches
// through AppendRowsIncremental with the encoding alive and checks it
// against from-scratch builds after every batch — including brand-new
// dictionary values, on a narrow table whose dictionaries grow from a
// few codes and on a wide one whose five dictionaries hold thousands.
func TestIncrementalAppendMatchesFreshBuild(t *testing.T) {
	narrow := New(schema.MustNew("R", "A", "B", "C"))
	narrow.MustAppendRows([]Tuple{{"v0", "v0", "v1"}, {"v1", "v2", "v0"}}, nil)
	for _, in := range []struct {
		name   string
		tab    *Table
		domain int
	}{
		{"narrow", narrow, 3}, // small start: few codes per dictionary
		{"wide", wideTable(rand.New(rand.NewSource(65))), 16384},
	} {
		t.Run(in.name, func(t *testing.T) {
			tab := in.tab
			rng := rand.New(rand.NewSource(11))
			sets := incrementalTestSets(tab.Schema())
			domain := in.domain
			for step := 0; step < 25; step++ {
				// Touch the encoding so there is something to extend.
				for _, attrs := range sets {
					tab.RowGroups(attrs)
				}
				k := 1 + rng.Intn(6)
				tuples := make([]Tuple, k)
				for i := range tuples {
					tup := make(Tuple, tab.Schema().Arity())
					for a := range tup {
						// Growing domain: every few steps new values appear
						// and the dictionaries grow.
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
		})
	}
}

// TestIncrementalSetCellsMatchesFreshBuild drives random cell-update
// batches through SetCellsIncremental, on a narrow table and on a wide
// one: codes go stale (holes, order divergence) while RowGroups must
// stay canonical.
func TestIncrementalSetCellsMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := make([]Tuple, 60)
	for i := range tuples {
		tuples[i] = Tuple{
			fmt.Sprintf("v%d", rng.Intn(5)),
			fmt.Sprintf("v%d", rng.Intn(5)),
			fmt.Sprintf("v%d", rng.Intn(5)),
		}
	}
	narrow := New(schema.MustNew("R", "A", "B", "C"))
	narrow.MustAppendRows(tuples, nil)
	for _, in := range []struct {
		name   string
		tab    *Table
		domain int
	}{
		{"narrow", narrow, 5},
		{"wide", wideTable(rand.New(rand.NewSource(65))), 16384},
	} {
		t.Run(in.name, func(t *testing.T) {
			tab := in.tab
			sets := incrementalTestSets(tab.Schema())
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
						Attr: rng.Intn(tab.Schema().Arity()),
						Val:  fmt.Sprintf("v%d", rng.Intn(in.domain+step)), // occasionally new
					}
				}
				if err := tab.SetCellsIncremental(updates); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkEncodingCanonical(t, tab, sets, fmt.Sprintf("step %d", step))
			}
		})
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

// FuzzIncrementalEncoding scripts a mix of AppendRowsIncremental and
// SetCellsIncremental calls on a warm encoding over (A, B, C) and
// checks the encoding against a from-scratch build after every step.
// The script's first byte is the number of starting rows (0–3, so
// projections may be cached over an empty table) and its second picks
// which of the tested projections are warmed before the first step.
// Every step then reads one op byte — its low bit chooses an append or
// a cell update, its next two bits a batch of 1–4 — followed by the
// batch's rows or (row, attribute, value) updates. Values come from
// eight names, so projections collide.
func FuzzIncrementalEncoding(f *testing.F) {
	f.Add([]byte{0, 31, 0, 1, 2, 3})
	f.Add([]byte{2, 4, 1, 2, 3, 4, 5, 6, 7, 1, 0, 1, 5, 6, 2, 9, 1})
	f.Add([]byte{3, 31, 0, 0, 7, 6, 5, 4, 3, 2, 1, 7, 1, 2, 2, 3, 0, 0, 5, 2, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		val := func() Value { return fmt.Sprintf("v%d", next()%8) }
		row := func() Tuple { return Tuple{val(), val(), val()} }
		sc := schema.MustNew("R", "A", "B", "C")
		sets := incrementalTestSets(sc)
		tab := New(sc)
		start := make([]Tuple, next()%4)
		for i := range start {
			start[i] = row()
		}
		tab.MustAppendRows(start, nil)
		warm := next()
		for i, attrs := range sets {
			if warm>>i&1 == 1 {
				tab.ProjectionCodes(attrs)
			}
		}
		for step := 0; len(script) > 0 && step < 16; step++ {
			op := next()
			k := 1 + op>>1&3
			if op&1 == 0 || tab.Len() == 0 {
				tuples := make([]Tuple, k)
				for i := range tuples {
					tuples[i] = row()
				}
				if _, err := tab.AppendRowsIncremental(tuples, nil); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			} else {
				ids := tab.IDs()
				updates := make([]CellUpdate, k)
				for i := range updates {
					updates[i] = CellUpdate{ID: ids[next()%len(ids)], Attr: next() % 3, Val: val()}
				}
				if err := tab.SetCellsIncremental(updates); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			checkEncodingCanonical(t, tab, sets, fmt.Sprintf("step %d", step))
		}
	})
}
