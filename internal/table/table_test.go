package table

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fd"
	"repro/internal/schema"
)

var office = schema.MustNew("Office", "facility", "room", "floor", "city")

func officeFDs(t testing.TB) *fd.Set {
	set, err := fd.ParseSet(office, "facility -> city", "facility room -> floor")
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// fig1T builds table T of Figure 1(a).
func fig1T(t testing.TB) *Table {
	tab := New(office)
	tab.MustInsert(1, Tuple{"HQ", "322", "3", "Paris"}, 2)
	tab.MustInsert(2, Tuple{"HQ", "322", "30", "Madrid"}, 1)
	tab.MustInsert(3, Tuple{"HQ", "122", "1", "Madrid"}, 1)
	tab.MustInsert(4, Tuple{"Lab1", "B35", "3", "London"}, 2)
	return tab
}

func TestInsertValidation(t *testing.T) {
	tab := New(office)
	if err := tab.Insert(1, Tuple{"a"}, 1); err == nil {
		t.Error("wrong arity must be rejected")
	}
	if err := tab.Insert(1, Tuple{"a", "b", "c", "d"}, 0); err == nil {
		t.Error("zero weight must be rejected")
	}
	if err := tab.Insert(1, Tuple{"a", "b", "c", "d"}, -1); err == nil {
		t.Error("negative weight must be rejected")
	}
	tab.MustInsert(1, Tuple{"a", "b", "c", "d"}, 1)
	if err := tab.Insert(1, Tuple{"x", "y", "z", "w"}, 1); err == nil {
		t.Error("duplicate id must be rejected")
	}
	if err := tab.Insert(2, Tuple{"\x00evil", "b", "c", "d"}, 1); err == nil {
		t.Error("reserved value must be rejected")
	}
}

func TestAppendAssignsFreshIDs(t *testing.T) {
	tab := New(office)
	id1, err := tab.Append(Tuple{"a", "b", "c", "d"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(id1+1, Tuple{"e", "f", "g", "h"}, 1)
	id3, err := tab.Append(Tuple{"i", "j", "k", "l"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 || id3 == id1+1 {
		t.Fatalf("Append reused an id: %d", id3)
	}
}

func TestFig1Properties(t *testing.T) {
	tab := fig1T(t)
	if tab.Len() != 4 {
		t.Fatalf("|T| = %d", tab.Len())
	}
	if !WeightEq(tab.TotalWeight(), 6) {
		t.Errorf("total weight = %v", tab.TotalWeight())
	}
	if !tab.IsDuplicateFree() {
		t.Error("T is duplicate free")
	}
	if tab.IsUnweighted() {
		t.Error("T is weighted")
	}
	set := officeFDs(t)
	if tab.Satisfies(set) {
		t.Error("T violates Δ (Example 2.2)")
	}
}

// TestFig1Subsets reproduces the consistent subsets S1, S2, S3 of
// Figure 1 and their distances from Example 2.3.
func TestFig1Subsets(t *testing.T) {
	tab := fig1T(t)
	set := officeFDs(t)
	cases := []struct {
		name string
		ids  []int
		dist float64
	}{
		{"S1", []int{2, 3, 4}, 2},
		{"S2", []int{1, 4}, 2},
		{"S3", []int{3, 4}, 3},
	}
	for _, c := range cases {
		s := tab.MustSubsetByIDs(c.ids)
		if !s.Satisfies(set) {
			t.Errorf("%s should be consistent", c.name)
		}
		if !s.IsSubsetOf(tab) {
			t.Errorf("%s should be a subset of T", c.name)
		}
		if got := DistSub(s, tab); !WeightEq(got, c.dist) {
			t.Errorf("dist_sub(%s, T) = %v, want %v", c.name, got, c.dist)
		}
	}
}

// TestFig1Updates reproduces the consistent updates U1, U2, U3 of
// Figure 1 and their distances from Example 2.3.
func TestFig1Updates(t *testing.T) {
	tab := fig1T(t)
	set := officeFDs(t)
	facility, _ := office.AttrIndex("facility")
	floor, _ := office.AttrIndex("floor")
	city, _ := office.AttrIndex("city")

	u1 := tab.Clone()
	u1.SetCellInPlace(1, facility, "F01")
	u2 := tab.Clone()
	u2.SetCellInPlace(2, floor, "3")
	u2.SetCellInPlace(2, city, "Paris")
	u2.SetCellInPlace(3, city, "Paris")
	u3 := tab.Clone()
	u3.SetCellInPlace(1, floor, "30")
	u3.SetCellInPlace(1, city, "Madrid")

	cases := []struct {
		name string
		u    *Table
		dist float64
	}{{"U1", u1, 2}, {"U2", u2, 3}, {"U3", u3, 4}}
	for _, c := range cases {
		if !c.u.Satisfies(set) {
			t.Errorf("%s should be consistent", c.name)
		}
		if !c.u.IsUpdateOf(tab) {
			t.Errorf("%s should be an update of T", c.name)
		}
		if got := DistUpd(c.u, tab); !WeightEq(got, c.dist) {
			t.Errorf("dist_upd(%s, T) = %v, want %v", c.name, got, c.dist)
		}
	}
}

func TestGroupByDeterministic(t *testing.T) {
	tab := fig1T(t)
	groups := tab.GroupBy(office.MustSet("facility"))
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if len(groups[0].IDs) != 3 || groups[0].IDs[0] != 1 {
		t.Errorf("first group = %v, want HQ tuples 1,2,3", groups[0].IDs)
	}
	if len(groups[1].IDs) != 1 || groups[1].IDs[0] != 4 {
		t.Errorf("second group = %v, want Lab1 tuple 4", groups[1].IDs)
	}
}

func TestKeyOfCollisionFree(t *testing.T) {
	sc := schema.MustNew("R", "A", "B")
	all := sc.AllAttrs()
	// "ab"+"c" vs "a"+"bc" must produce different keys.
	k1 := KeyOf(Tuple{"ab", "c"}, all)
	k2 := KeyOf(Tuple{"a", "bc"}, all)
	if k1 == k2 {
		t.Fatal("KeyOf collided on ab|c vs a|bc")
	}
	// Numeric-ish values.
	k3 := KeyOf(Tuple{"1", "11"}, all)
	k4 := KeyOf(Tuple{"11", "1"}, all)
	if k3 == k4 {
		t.Fatal("KeyOf collided on 1|11 vs 11|1")
	}
}

func TestViolationsAndConflictGraph(t *testing.T) {
	tab := fig1T(t)
	set := officeFDs(t)
	vs := tab.Violations(set, 0)
	if len(vs) == 0 {
		t.Fatal("expected violations")
	}
	// In T, tuple 1 conflicts with 2 (floor and city) and with 3 (city).
	edges := tab.ConflictGraph(set)
	want := map[ConflictEdge]bool{{1, 2}: true, {1, 3}: true}
	if len(edges) != len(want) {
		t.Fatalf("conflict edges = %v, want %v", edges, want)
	}
	for _, e := range edges {
		if !want[e] {
			t.Errorf("unexpected conflict edge %v", e)
		}
	}
	// Violations with a cap.
	if got := tab.Violations(set, 1); len(got) != 1 {
		t.Errorf("capped violations = %d, want 1", len(got))
	}
}

func TestFreshNeverCollides(t *testing.T) {
	tab := fig1T(t)
	seen := map[Value]bool{}
	for _, r := range tab.Rows() {
		for _, v := range r.Tuple {
			seen[v] = true
		}
	}
	for i := 0; i < 100; i++ {
		f := tab.Fresh()
		if seen[f] {
			t.Fatalf("fresh value %q collides", f)
		}
		seen[f] = true
	}
}

func TestCloneIndependence(t *testing.T) {
	tab := fig1T(t)
	c := tab.Clone()
	c.SetCellInPlace(1, 0, "CHANGED")
	r, _ := tab.Row(1)
	if r.Tuple[0] != "HQ" {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSetCellImmutability(t *testing.T) {
	tab := fig1T(t)
	u, err := tab.SetCell(1, 3, "Rome")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tab.Row(1)
	if r.Tuple[3] != "Paris" {
		t.Fatal("SetCell mutated the receiver")
	}
	ur, _ := u.Row(1)
	if ur.Tuple[3] != "Rome" {
		t.Fatal("SetCell did not change the copy")
	}
	if _, err := tab.SetCell(99, 0, "x"); err == nil {
		t.Error("SetCell with unknown id should fail")
	}
	if _, err := tab.SetCell(1, 9, "x"); err == nil {
		t.Error("SetCell with bad attribute should fail")
	}
}

func TestSetCellsBatch(t *testing.T) {
	tab := fig1T(t)
	u, err := tab.SetCells([]CellUpdate{
		{ID: 1, Attr: 3, Val: "Rome"},
		{ID: 2, Attr: 3, Val: "Rome"},
		{ID: 1, Attr: 2, Val: "5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tab.Row(1)
	if r.Tuple[3] != "Paris" || r.Tuple[2] != "3" {
		t.Fatal("SetCells mutated the receiver")
	}
	u1, _ := u.Row(1)
	u2, _ := u.Row(2)
	if u1.Tuple[3] != "Rome" || u1.Tuple[2] != "5" || u2.Tuple[3] != "Rome" {
		t.Fatalf("SetCells did not apply all updates: %v %v", u1.Tuple, u2.Tuple)
	}
	if _, err := tab.SetCells([]CellUpdate{{ID: 99, Attr: 0, Val: "x"}}); err == nil {
		t.Error("SetCells with unknown id should fail")
	}
	if _, err := tab.SetCells([]CellUpdate{{ID: 1, Attr: 9, Val: "x"}}); err == nil {
		t.Error("SetCells with bad attribute should fail")
	}
}

func TestSubsetByIDsErrors(t *testing.T) {
	tab := fig1T(t)
	if _, err := tab.SubsetByIDs([]int{1, 99}); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestDistPanics(t *testing.T) {
	tab := fig1T(t)
	other := New(office)
	other.MustInsert(99, Tuple{"x", "y", "z", "w"}, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DistSub of non-subset should panic")
			}
		}()
		DistSub(other, tab)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DistUpd of non-update should panic")
			}
		}()
		DistUpd(other, tab)
	}()
}

// TestDistSubWalkMatchesIDPath pins DistSub's in-order walk to its
// id-map path: a subset listed in the table's order takes the walk, the
// same rows shuffled take the maps, and the two costs must be equal bit
// for bit. Every non-subset — by tuple, weight, unknown id or schema,
// each listed in the table's order so the walk is what must catch it —
// panics.
func TestDistSubWalkMatchesIDPath(t *testing.T) {
	sc := schema.MustNew("R", "A", "B")
	tab := New(sc)
	// Weights whose float sum depends on the order of the additions.
	ws := []float64{0.1, 1e16, 0.3, 1, 1e-3, 7.25, 3e-8, 2.5e15}
	for i := 0; i < 200; i++ {
		tab.MustInsert(3*i+1, Tuple{strconv.Itoa(i % 7), strconv.Itoa(i % 5)}, ws[i%len(ws)])
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		var rows []Row
		for _, r := range tab.Rows() {
			if rng.Intn(3) > 0 {
				rows = append(rows, r)
			}
		}
		s, p := New(sc), New(sc)
		for _, r := range rows {
			s.MustInsert(r.ID, r.Tuple, r.Weight)
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		for _, r := range rows {
			p.MustInsert(r.ID, r.Tuple, r.Weight)
		}
		if _, ok := distSubInOrder(s, tab); !ok {
			t.Fatalf("iteration %d: the walk refused a subset in the table's order", iter)
		}
		if _, ok := distSubInOrder(p, tab); ok {
			t.Fatalf("iteration %d: the walk accepted a shuffled subset", iter)
		}
		if walk, ids := DistSub(s, tab), DistSub(p, tab); math.Float64bits(walk) != math.Float64bits(ids) {
			t.Fatalf("iteration %d: walk %v, id maps %v", iter, walk, ids)
		}
	}

	edit := func(f func(r *Row)) *Table {
		s := New(sc)
		for i, r := range tab.Rows() {
			if i%2 == 0 {
				if i == 40 {
					r.Tuple = r.Tuple.Clone()
					f(&r)
				}
				s.MustInsert(r.ID, r.Tuple, r.Weight)
			}
		}
		return s
	}
	other := New(schema.MustNew("R", "A", "C"))
	for _, r := range tab.Rows()[:10] {
		other.MustInsert(r.ID, r.Tuple, r.Weight)
	}
	for name, s := range map[string]*Table{
		"tuple":      edit(func(r *Row) { r.Tuple[1] = "changed" }),
		"weight":     edit(func(r *Row) { r.Weight += 0.5 }),
		"unknown id": edit(func(r *Row) { r.ID++ }),
		"schema":     other,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DistSub of a non-subset by %s did not panic", name)
				}
			}()
			DistSub(s, tab)
		}()
	}
}

func TestStringRendersFresh(t *testing.T) {
	tab := New(office)
	tab.MustInsert(1, Tuple{"HQ", "322", "3", "Paris"}, 2)
	f := tab.Fresh()
	tab.MustInsert(2, Tuple{f, "322", "3", "Paris"}, 1)
	s := tab.String()
	if !strings.Contains(s, "⊥") {
		t.Errorf("String() should render fresh constants with ⊥: %q", s)
	}
	if strings.Contains(s, "\x00") {
		t.Error("String() leaked the reserved prefix")
	}
}

func TestSatisfiesEmptySetAndConsensus(t *testing.T) {
	tab := fig1T(t)
	empty, _ := fd.ParseSet(office)
	if !tab.Satisfies(empty) {
		t.Error("every table satisfies the empty set")
	}
	cons, _ := fd.ParseSet(office, "-> city")
	if tab.Satisfies(cons) {
		t.Error("T has two cities; must violate ∅ → city")
	}
	oneCity := tab.MustSubsetByIDs([]int{2, 3})
	if !oneCity.Satisfies(cons) {
		t.Error("Madrid-only subset satisfies ∅ → city")
	}
}
