package cqa

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

// The factorized engine must agree with the seed full enumeration on
// every instance the seed can handle (≤ 64 tuples): same certain and
// possible answers, same repair count — at every worker count. Beyond
// the seed's reach, the per-component bound is pinned by a structural
// check on a table no full enumeration could touch.

var diffWorkers = []int{1, 2, 4, 8}

func randomQuery(t *testing.T, sc *schema.Schema, tab *table.Table, rng *rand.Rand) *Query {
	t.Helper()
	var project schema.AttrSet
	for _, p := range rng.Perm(sc.Arity())[:1+rng.Intn(sc.Arity())] {
		project = project.Add(p)
	}
	var filters []Filter
	for rng.Intn(3) == 0 {
		attr := rng.Intn(sc.Arity())
		val := table.Value("miss")
		if rows := tab.Rows(); len(rows) > 0 && rng.Intn(4) > 0 {
			val = rows[rng.Intn(len(rows))].Tuple[attr]
		}
		filters = append(filters, Filter{Attr: attr, Value: val})
	}
	q, err := NewQuery(sc, project, filters...)
	if err != nil {
		t.Fatalf("building query: %v", err)
	}
	return q
}

func TestDifferentialCQA(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	ds := fd.MustParseSet(sc, "A -> B", "A -> C")
	check := func(label string, tab *table.Table, q *Query) {
		want, err := ConsistentAnswers(ds, tab, q)
		if err != nil {
			t.Fatalf("%s: seed enumeration: %v", label, err)
		}
		for _, w := range diffWorkers {
			got, err := ConsistentAnswersCtx(solve.New(w, nil, nil), ds, tab, q)
			if err != nil {
				t.Fatalf("%s workers=%d: encoded answers: %v", label, w, err)
			}
			if !reflect.DeepEqual(got.Certain, want.Certain) {
				t.Fatalf("%s workers=%d: certain diverges: got %v, oracle %v",
					label, w, got.Certain, want.Certain)
			}
			if !reflect.DeepEqual(got.Possible, want.Possible) {
				t.Fatalf("%s workers=%d: possible diverges: got %v, oracle %v",
					label, w, got.Possible, want.Possible)
			}
			if got.Repairs != want.Repairs {
				t.Fatalf("%s workers=%d: %d repairs, oracle %d",
					label, w, got.Repairs, want.Repairs)
			}
		}
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		var tab *table.Table
		if rng.Intn(2) == 0 {
			tab = workload.SmallComponentTable(sc, rng.Intn(49), 1+rng.Intn(4), 1+rng.Intn(3), rng)
		} else {
			tab = workload.RandomTable(sc, rng.Intn(33), 1+rng.Intn(4), rng)
		}
		check(fmt.Sprintf("trial %d", trial), tab, randomQuery(t, sc, tab, rng))
	}
	// One table whose ids do not ascend with row position.
	shuffled := rand.New(rand.NewSource(62))
	tab := workload.ShuffledIDs(workload.SmallComponentTable(sc, 30, 3, 2, shuffled), shuffled)
	check("shuffled ids", tab, randomQuery(t, sc, tab, shuffled))
}

// TestDifferentialCQABeyondSeedBound pins the factorization's whole
// point: a 600-tuple table (far past the enumerator's 64-tuple limit)
// with ≤3-tuple components answers exactly, and projecting the block
// key makes every one of the 200 keys a certain answer because every
// repair keeps at least one tuple per component.
func TestDifferentialCQABeyondSeedBound(t *testing.T) {
	sc := schema.MustNew("R", "A", "B", "C")
	ds := fd.MustParseSet(sc, "A -> B", "A -> C")
	tab := workload.SmallComponentTable(sc, 600, 3, 2, rand.New(rand.NewSource(67)))
	if _, err := ConsistentAnswers(ds, tab, mustKeyQuery(t, sc)); err == nil {
		t.Fatal("seed enumeration unexpectedly handled 600 tuples")
	}
	for _, w := range diffWorkers {
		got, err := ConsistentAnswersCtx(solve.New(w, nil, nil), ds, tab, mustKeyQuery(t, sc))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got.Certain) != 200 || len(got.Possible) != 200 {
			t.Fatalf("workers=%d: %d certain / %d possible block keys, want 200/200",
				w, len(got.Certain), len(got.Possible))
		}
		if got.Repairs < 1 {
			t.Fatalf("workers=%d: repair count %d", w, got.Repairs)
		}
	}
}

func mustKeyQuery(t *testing.T, sc *schema.Schema) *Query {
	t.Helper()
	q, err := NewQuery(sc, schema.AttrSet(0).Add(0))
	if err != nil {
		t.Fatal(err)
	}
	return q
}
