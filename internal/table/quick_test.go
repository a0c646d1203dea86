package table

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fd"
	"repro/internal/schema"
)

var quickSchema = schema.MustNew("Q", "A", "B", "C")

// genTable builds a table from raw byte seeds (3 values per tuple from
// a domain of 4, weight from 1..4).
func genTable(seeds []byte) *Table {
	t := New(quickSchema)
	for i := 0; i+3 < len(seeds); i += 4 {
		tup := Tuple{
			fmt.Sprintf("v%d", seeds[i]%4),
			fmt.Sprintf("v%d", seeds[i+1]%4),
			fmt.Sprintf("v%d", seeds[i+2]%4),
		}
		t.MustInsert(i/4+1, tup, float64(seeds[i+3]%4)+1)
	}
	return t
}

// Property: KeyOf is injective on projections — two tuples get the same
// key for an attribute set iff they agree on it.
func TestQuickKeyOfInjective(t *testing.T) {
	f := func(a1, b1, c1, a2, b2, c2 byte, attrRaw uint8) bool {
		attrs := schema.AttrSet(attrRaw) & quickSchema.AllAttrs()
		t1 := Tuple{fmt.Sprintf("x%d", a1%3), fmt.Sprintf("x%d", b1%3), fmt.Sprintf("x%d", c1%3)}
		t2 := Tuple{fmt.Sprintf("x%d", a2%3), fmt.Sprintf("x%d", b2%3), fmt.Sprintf("x%d", c2%3)}
		same := true
		for _, p := range attrs.Positions() {
			if t1[p] != t2[p] {
				same = false
			}
		}
		return (KeyOf(t1, attrs) == KeyOf(t2, attrs)) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(201))}); err != nil {
		t.Fatal(err)
	}
}

// Property: GroupBy partitions the identifiers: disjoint groups whose
// union is ids(T), and members agree exactly on the grouping key.
func TestQuickGroupByPartition(t *testing.T) {
	f := func(seeds []byte, attrRaw uint8) bool {
		tab := genTable(seeds)
		attrs := schema.AttrSet(attrRaw) & quickSchema.AllAttrs()
		groups := tab.GroupBy(attrs)
		seen := map[int]bool{}
		for _, g := range groups {
			if len(g.IDs) == 0 {
				return false
			}
			first, _ := tab.Row(g.IDs[0])
			for _, id := range g.IDs {
				if seen[id] {
					return false
				}
				seen[id] = true
				r, _ := tab.Row(id)
				if KeyOf(r.Tuple, attrs) != KeyOf(first.Tuple, attrs) {
					return false
				}
			}
		}
		return len(seen) == tab.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(202))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hamming distance is a metric on tuples (identity,
// symmetry, triangle inequality).
func TestQuickHammingMetric(t *testing.T) {
	mk := func(a, b, c byte) Tuple {
		return Tuple{fmt.Sprintf("h%d", a%3), fmt.Sprintf("h%d", b%3), fmt.Sprintf("h%d", c%3)}
	}
	f := func(a1, b1, c1, a2, b2, c2, a3, b3, c3 byte) bool {
		t1, t2, t3 := mk(a1, b1, c1), mk(a2, b2, c2), mk(a3, b3, c3)
		if t1.Hamming(t1) != 0 {
			return false
		}
		if t1.Hamming(t2) != t2.Hamming(t1) {
			return false
		}
		if (t1.Hamming(t2) == 0) != t1.Equal(t2) {
			return false
		}
		return t1.Hamming(t3) <= t1.Hamming(t2)+t2.Hamming(t3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(203))}); err != nil {
		t.Fatal(err)
	}
}

// Property: SatisfiesFD agrees with the quadratic definition (every
// agreeing pair agrees on the rhs).
func TestQuickSatisfiesFDDefinition(t *testing.T) {
	f := func(seeds []byte, lhsRaw, rhsRaw uint8) bool {
		tab := genTable(seeds)
		lhs := schema.AttrSet(lhsRaw) & quickSchema.AllAttrs()
		rhs := schema.AttrSet(rhsRaw) & quickSchema.AllAttrs()
		fdd := fd.FD{LHS: lhs, RHS: rhs}
		want := true
		rows := tab.Rows()
		for i := 0; i < len(rows) && want; i++ {
			for j := i + 1; j < len(rows); j++ {
				if KeyOf(rows[i].Tuple, lhs) == KeyOf(rows[j].Tuple, lhs) &&
					KeyOf(rows[i].Tuple, rhs) != KeyOf(rows[j].Tuple, rhs) {
					want = false
					break
				}
			}
		}
		return tab.SatisfiesFD(fdd) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(204))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the conflict graph is sound and complete — {i, j} is an
// edge iff the two-row subtable violates the set — and lists each edge
// once, also when a pair violates several FDs (the second set).
func TestQuickConflictGraphDefinition(t *testing.T) {
	for _, ds := range []*fd.Set{
		fd.MustParseSet(quickSchema, "A -> B", "B -> C"),
		fd.MustParseSet(quickSchema, "A -> B", "A -> C", "C -> B"),
	} {
		quickConflictGraph(t, ds)
	}
}

func quickConflictGraph(t *testing.T, ds *fd.Set) {
	f := func(seeds []byte) bool {
		tab := genTable(seeds)
		list := tab.ConflictGraph(ds)
		edges := map[ConflictEdge]bool{}
		for _, e := range list {
			edges[e] = true
		}
		if len(edges) != len(list) {
			return false
		}
		ids := tab.IDs()
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				pair := tab.MustSubsetByIDs([]int{ids[i], ids[j]})
				conflict := !pair.Satisfies(ds)
				e := ConflictEdge{ID1: ids[i], ID2: ids[j]}
				if e.ID1 > e.ID2 {
					e.ID1, e.ID2 = e.ID2, e.ID1
				}
				if edges[e] != conflict {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(205))}); err != nil {
		t.Fatal(err)
	}
}

// Property: dist_sub is additive over deleted tuples and dist_upd over
// changed cells; both vanish exactly on identity.
func TestQuickDistanceIdentities(t *testing.T) {
	f := func(seeds []byte, dropMask uint16) bool {
		tab := genTable(seeds)
		ids := tab.IDs()
		var keep []int
		var dropped float64
		for i, id := range ids {
			if dropMask&(1<<uint(i%16)) != 0 && i < 16 {
				dropped += tab.Weight(id)
				continue
			}
			keep = append(keep, id)
		}
		sub := tab.MustSubsetByIDs(keep)
		if !WeightEq(DistSub(sub, tab), dropped) {
			return false
		}
		if DistSub(tab, tab) != 0 {
			return false
		}
		return DistUpd(tab.Clone(), tab) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(206))}); err != nil {
		t.Fatal(err)
	}
}
