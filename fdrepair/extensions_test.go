package fdrepair

import (
	"testing"

	"repro/internal/table"
	"repro/internal/workload"
)

func TestCountAndEnumerateFacade(t *testing.T) {
	_, ds, tab := workload.Office()
	c, err := CountSRepairs(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	reps, total, err := SubsetRepairs(ds, tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Int64() != int64(total) || len(reps) != total {
		t.Fatalf("count %v, enumerated %d/%d", c, len(reps), total)
	}
	for _, r := range reps {
		if !r.Satisfies(ds) {
			t.Fatal("enumerated repair inconsistent")
		}
	}
}

func TestRestrictedAndMixedFacade(t *testing.T) {
	sc := MustSchema("R", "A", "B", "C")
	ds := MustFDs(sc, "A -> B", "B -> C")
	tab := NewTable(sc)
	tab.MustInsert(1, Tuple{"a", "b1", "c1"}, 1)
	tab.MustInsert(2, Tuple{"a", "b2", "c2"}, 1)
	_, free, err := ExactURepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, restricted, err := RestrictedURepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !table.WeightEq(free, 1) || !table.WeightEq(restricted, 2) {
		t.Fatalf("free %v restricted %v, want 1 and 2", free, restricted)
	}
	_, deleted, mixed, err := MixedRepair(ds, tab, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !table.WeightEq(mixed, 0.5) || len(deleted) != 1 {
		t.Fatalf("mixed %v deleted %v", mixed, deleted)
	}
}

func TestPriorityFacade(t *testing.T) {
	_, ds, tab := workload.Office()
	r := NewPriority()
	r.Add(1, 2)
	r.Add(1, 3)
	rep, err := PrioritizedRepair(ds, tab, r)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Has(1) || !rep.Has(4) || rep.Len() != 2 {
		t.Fatalf("repair = %v", rep.IDs())
	}
	opt, err := ClassifyPrioritized(ds, tab, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.All) != 2 || len(opt.Pareto) != 1 || len(opt.Global) != 1 {
		t.Fatalf("classification = %d/%d/%d", len(opt.All), len(opt.Pareto), len(opt.Global))
	}
	unique, err := UnambiguousUnder(ds, tab, r)
	if err != nil || !unique {
		t.Fatalf("unambiguous = %v, %v", unique, err)
	}
}

func TestDiffRepairFacade(t *testing.T) {
	_, ds, tab := workload.Office()
	s, _, err := OptimalSRepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffRepair(tab, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Deleted) != 2 || len(d.Changed) != 0 {
		t.Fatalf("diff = %+v", d)
	}
}

func TestCFDFacade(t *testing.T) {
	sc := MustSchema("Cust", "country", "areaCode", "city")
	c, err := NewConditionalFD(sc, "country areaCode -> city",
		[]string{"44", "131"}, "EDI")
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(sc)
	tab.MustInsert(1, Tuple{"44", "131", "EDI"}, 1)
	tab.MustInsert(2, Tuple{"44", "131", "LON"}, 1)
	if CFDSatisfies([]*ConditionalFD{c}, tab) {
		t.Fatal("table must violate the CFD")
	}
	res, err := ExactCFDSRepair([]*ConditionalFD{c}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forced) != 1 || !table.WeightEq(res.TotalCost, 1) {
		t.Fatalf("result = %+v", res)
	}
	ap, err := ApproxCFDSRepair([]*ConditionalFD{c}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !CFDSatisfies([]*ConditionalFD{c}, ap.Repair) {
		t.Fatal("approx repair violates")
	}
}

// TestExactConstraintRepairInputChecks: the exact CFD and denial
// repairs check their inputs like their Approx twins, package-level and
// Solver-scoped alike — a nil table or an empty constraint set is the
// twin's error, not a panic or the input returned unrepaired — and a
// WithStats Solver counts their solves.
func TestExactConstraintRepairInputChecks(t *testing.T) {
	sc := MustSchema("R", "A", "B")
	tab := NewTable(sc)
	tab.MustInsert(1, Tuple{"a", "b1"}, 1)
	tab.MustInsert(2, Tuple{"a", "b2"}, 1)
	c, err := ParseConditionalFD(sc, "A -> B")
	if err != nil {
		t.Fatal(err)
	}
	dc, err := ParseDenial(sc, "t1.A = t2.A & t1.B != t2.B")
	if err != nil {
		t.Fatal(err)
	}
	cfds, dcs := []*ConditionalFD{c}, []*DenialConstraint{dc}
	sv := NewSolver(WithStats())
	errOf := func(_ any, err error) error { return err }
	errOf3 := func(_ *Table, _ float64, err error) error { return err }
	for _, tc := range []struct {
		name          string
		exact, approx error
	}{
		{"cfd/nil-table", errOf(ExactCFDSRepair(cfds, nil)), errOf(ApproxCFDSRepair(cfds, nil))},
		{"cfd/no-cfds", errOf(ExactCFDSRepair(nil, tab)), errOf(ApproxCFDSRepair(nil, tab))},
		{"cfd/solver/nil-table", errOf(sv.ExactCFDSRepair(cfds, nil)), errOf(sv.ApproxCFDSRepair(cfds, nil))},
		{"cfd/solver/no-cfds", errOf(sv.ExactCFDSRepair(nil, tab)), errOf(sv.ApproxCFDSRepair(nil, tab))},
		{"denial/nil-table", errOf3(ExactDenialSRepair(dcs, nil)), errOf3(ApproxDenialSRepair(dcs, nil))},
		{"denial/no-constraints", errOf3(ExactDenialSRepair(nil, tab)), errOf3(ApproxDenialSRepair(nil, tab))},
		{"denial/solver/nil-table", errOf3(sv.ExactDenialSRepair(dcs, nil)), errOf3(sv.ApproxDenialSRepair(dcs, nil))},
		{"denial/solver/no-constraints", errOf3(sv.ExactDenialSRepair(nil, tab)), errOf3(sv.ApproxDenialSRepair(nil, tab))},
	} {
		if tc.exact == nil || tc.approx == nil || tc.exact.Error() != tc.approx.Error() {
			t.Errorf("%s: exact error %v, approx error %v: want the same error", tc.name, tc.exact, tc.approx)
		}
	}
	sv.ResetStats()
	if _, err := sv.ExactCFDSRepair(cfds, tab); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sv.ExactDenialSRepair(dcs, tab); err != nil {
		t.Fatal(err)
	}
	if st := sv.Stats(); st.CFDPatterns == 0 || st.DenialPredicates == 0 {
		t.Fatalf("exact solves left no per-request stats: %+v", st)
	}
}
