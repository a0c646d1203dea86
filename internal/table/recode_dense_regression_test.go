package table

import (
	"reflect"
	"testing"

	"repro/internal/schema"
)

// Regression test: a single-attribute projection grouped for the first
// time AFTER SetCellsIncremental has recoded that column must not be
// grouped as if its codes were canonical. The recode rewrites column
// codes in place, which can orphan a code (no remaining carrier) and
// break first-appearance order; bucketing such codes by code value
// panics on the orphaned code's empty bucket and returns buckets out of
// canonical order even when it survives. canonicalGroups checks the
// codes themselves and ranks non-canonical ones, re-deriving the true
// shape. Pinned against a from-scratch table as the oracle.
func TestGroupByAfterIncrementalColumnRecode(t *testing.T) {
	sc, _ := schema.New("T", "A", "B")
	tab := New(sc)
	tab.MustInsert(1, Tuple{"x", "p"}, 1)
	tab.MustInsert(2, Tuple{"y", "q"}, 1)
	tab.MustInsert(3, Tuple{"x", "r"}, 1)

	// Cache the multi-attribute projection {A,B}: this encodes column A
	// (codes x=0, y=1) as the {A} projection it folds, without grouping
	// it, so the {A} grouping below is the column's first.
	ab := schema.Singleton(0).Union(schema.Singleton(1))
	tab.ProjectionCodes(ab)

	// Recode every "x" to "y": code 0 ("x") loses its last carrier —
	// column A's codes become [1,1,1], with code 0 orphaned and code 1
	// first-appearing before it.
	if err := tab.SetCellsIncremental([]CellUpdate{{ID: 1, Attr: 0, Val: "y"}, {ID: 3, Attr: 0, Val: "y"}}); err != nil {
		t.Fatal(err)
	}

	// First-ever request of the single-attribute {A} grouping.
	got := tab.GroupBy(schema.Singleton(0))

	// A from-scratch table with the same final rows is the oracle.
	fresh := New(sc)
	fresh.MustInsert(1, Tuple{"y", "p"}, 1)
	fresh.MustInsert(2, Tuple{"y", "q"}, 1)
	fresh.MustInsert(3, Tuple{"y", "r"}, 1)
	want := fresh.GroupBy(schema.Singleton(0))

	if len(got) != len(want) {
		t.Fatalf("group count diverges: incremental %d vs from-scratch %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].IDs, want[i].IDs) {
			t.Fatalf("group %d diverges: %v vs %v", i, got[i].IDs, want[i].IDs)
		}
	}
}
