// Package urepair implements the paper's algorithms for optimal update
// repairs (optimal U-repairs, Section 4):
//
//   - a planner (Repair) that composes the paper's exact cases —
//     consensus elimination (Theorem 4.3, Proposition B.2),
//     attribute-disjoint decomposition (Theorem 4.1), common-lhs FD sets
//     via S-repairs (Corollary 4.6), chain FD sets (Corollary 4.8) and
//     the key-swap set {A→B, B→A} (Proposition 4.9) — and falls back to
//     approximation on components it cannot solve exactly;
//   - the 2·mlc(Δ)-approximation of Theorem 4.12 built from
//     Proposition 4.4's subset↔update transfer constructions;
//   - a Kolahi–Lakshmanan-style heuristic (majority rhs chase with a
//     core freshening fallback) used in the combined approximation of
//     Section 4.4;
//   - an exponential exact baseline for tiny instances (validation).
package urepair

import (
	"fmt"
	"strings"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/srepair"
	"repro/internal/table"
)

// Result is the outcome of a U-repair computation.
type Result struct {
	// Update is a consistent update of the input table.
	Update *table.Table
	// Cost is dist_upd(Update, T).
	Cost float64
	// Exact reports whether Update is provably an optimal U-repair.
	Exact bool
	// RatioBound is the guaranteed approximation ratio (1 when Exact).
	RatioBound float64
	// Method describes how the repair was obtained.
	Method string
}

// Repair computes a U-repair of t under ds: exact whenever the FD set
// falls into one of the paper's tractable cases (after consensus
// elimination and attribute-disjoint decomposition), and the best of
// the 2·mlc approximation and the KL-style heuristic otherwise. The
// result is always a consistent update. Runs on the process-default
// solve context; see RepairCtx.
func Repair(ds *fd.Set, t *table.Table) (Result, error) {
	return RepairCtx(solve.Default(), ds, t)
}

// RepairCtx is Repair under an explicit solve context: the S-repair
// solves inside the planner (key swap, common lhs, 2-approximation)
// inherit c's worker budget and arenas, and cancellation is honored
// between planner phases and inside the solves.
func RepairCtx(c *solve.Ctx, ds *fd.Set, t *table.Table) (Result, error) {
	if !ds.Schema().SameAs(t.Schema()) {
		return Result{}, fmt.Errorf("urepair: FD set and table have different schemas")
	}
	res, err := repairFull(c, ds, t)
	if err != nil {
		return Result{}, err
	}
	if !res.Update.Satisfies(ds) {
		return Result{}, fmt.Errorf("urepair: internal error: produced an inconsistent update")
	}
	return res, nil
}

// repairFull handles consensus elimination (Theorem 4.3) and then
// decomposes into attribute-disjoint components (Theorem 4.1).
// Components are independent — they touch disjoint attribute sets and
// only read the input table — so they become tasks on the solve
// context's work-stealing scheduler, alongside the S-repair blocks the
// component solves spawn internally. Their cell changes are merged
// serially in component index order after the join, which (together
// with index-ordered cost summation) keeps the result byte-identical
// to the serial planner at any worker count.
func repairFull(c *solve.Ctx, ds *fd.Set, t *table.Table) (Result, error) {
	u := t.Clone()
	var cost float64
	exact := true
	ratio := 1.0
	var methods []string

	consensus := ds.ConsensusAttrs()
	if !consensus.IsEmpty() {
		cc, changed := consensusRepairInto(u, t, consensus)
		cost += cc
		if changed {
			methods = append(methods, "consensus-majority")
			c.Stats().Add(solve.PlannerConsensus, 1)
		}
	}
	rest := ds.Minus(consensus)
	comps := rest.Components()
	// Every Result holds a full-table update, so peak memory is one
	// clone per component until the merge; components have pairwise
	// disjoint attribute sets, so their count is bounded by the schema
	// arity, not the data.
	results := make([]Result, len(comps))
	err := c.ForEachBlock(len(comps),
		// Every component scans the full table, so its cost scales with
		// the row count regardless of its FD count.
		func(int) int { return t.Len() },
		func(wc *solve.Ctx, i int) error {
			r, err := repairComponent(wc, comps[i], t)
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		})
	if err != nil {
		return Result{}, err
	}
	for i, comp := range comps {
		// The merge scans every changed row of a component per
		// iteration; honor cancellation between components.
		if err := c.Err(); err != nil {
			return Result{}, err
		}
		r := results[i]
		// Merge the component's cell changes (its attributes are disjoint
		// from every other component and from the consensus attributes).
		attrs := comp.AttrsUsed()
		for _, row := range r.Update.Rows() {
			orig, _ := t.Row(row.ID)
			for _, a := range attrs.Positions() {
				if row.Tuple[a] != orig.Tuple[a] {
					u.SetCellInPlace(row.ID, a, row.Tuple[a])
				}
			}
		}
		cost += r.Cost
		exact = exact && r.Exact
		if r.RatioBound > ratio {
			ratio = r.RatioBound
		}
		methods = append(methods, r.Method)
	}
	if len(methods) == 0 {
		methods = append(methods, "trivial")
	}
	return Result{
		Update:     u,
		Cost:       cost,
		Exact:      exact,
		RatioBound: ratio,
		Method:     strings.Join(methods, " + "),
	}, nil
}

// ExactPlan reports whether the planner solves ds exactly, reading the
// same case analysis Repair dispatches on but no data: consensus
// attributes are removable (Theorem 4.3), components are independent
// (Theorem 4.1), and a component is exact when it is trivial, a key
// swap (Proposition 4.9) or a common-lhs set passing OSRSucceeds
// (Corollary 4.6). A sufficient condition: the full U-repair dichotomy
// is open.
func ExactPlan(ds *fd.Set) bool {
	for _, comp := range ds.Minus(ds.ConsensusAttrs()).Components() {
		if !comp.IsTrivialSet() && !isKeySwap(comp) && !commonLHSTractable(comp) {
			return false
		}
	}
	return true
}

// commonLHSTractable reports whether Corollary 4.6 applies: a common
// lhs and the tractable side of the S-repair dichotomy.
func commonLHSTractable(comp *fd.Set) bool {
	return !comp.CommonLHS().IsEmpty() && srepair.OSRSucceeds(comp)
}

// repairComponent solves one consensus-free, attribute-connected
// component of the FD set against the full table, recording which
// subroutine won (and the component's FD count) in the solve stats.
func repairComponent(c *solve.Ctx, comp *fd.Set, t *table.Table) (Result, error) {
	r, won, err := planComponent(c, comp, t)
	if err == nil {
		st := c.Stats()
		st.Add(solve.PlannerComponents, 1)
		st.Add(won, 1)
		st.Max(solve.PlannerMaxCompFDs, int64(comp.Len()))
	}
	return r, err
}

// planComponent tries the component's subroutines in order and returns
// the first repair with the planner counter of the subroutine that won.
func planComponent(c *solve.Ctx, comp *fd.Set, t *table.Table) (Result, solve.Counter, error) {
	if comp.IsTrivialSet() {
		return Result{Update: t.Clone(), Exact: true, RatioBound: 1, Method: "trivial"}, solve.PlannerTrivial, nil
	}
	if isKeySwap(comp) {
		r, ok, err := keySwapRepair(c, comp, t)
		if err != nil || ok {
			return r, solve.PlannerKeySwap, err
		}
	}
	if commonLHSTractable(comp) {
		r, ok, err := commonLHSRepair(c, comp, t)
		if err != nil || ok {
			return r, solve.PlannerCommonLHS, err
		}
	}
	r, err := approxComponent(c, comp, t)
	return r, solve.PlannerApprox, err
}

// commonLHSRepair implements Corollary 4.6 for sets with a common lhs
// (mlc = 1) on the tractable side of the S-repair dichotomy: an optimal
// S-repair transfers to an optimal U-repair with identical cost.
func commonLHSRepair(c *solve.Ctx, comp *fd.Set, t *table.Table) (Result, bool, error) {
	s, err := srepair.OptSRepairCtx(c, comp, t)
	if err != nil {
		if cerr := c.Err(); cerr != nil {
			return Result{}, false, cerr
		}
		return Result{}, false, nil
	}
	cover := schema.Singleton(comp.CommonLHS().First())
	u := SubsetToUpdate(t, s, cover)
	return Result{
		Update:     u,
		Cost:       table.DistSub(s, t),
		Exact:      true,
		RatioBound: 1,
		Method:     "common-lhs (Cor 4.6 via OptSRepair)",
	}, true, nil
}

// UpdateToSubset is Proposition 4.4 (1): from a consistent update u of
// t, build a consistent subset by deleting every modified tuple. Its
// dist_sub never exceeds dist_upd(u, t).
func UpdateToSubset(t, u *table.Table) *table.Table {
	var keep []int
	for _, r := range t.Rows() {
		ur, _ := u.Row(r.ID)
		if r.Tuple.Equal(ur.Tuple) {
			keep = append(keep, r.ID)
		}
	}
	return t.MustSubsetByIDs(keep)
}

// SubsetToUpdate is Proposition 4.4 (2): from a consistent subset s of
// t and an lhs cover of the (consensus-free) FD set, build a consistent
// update by overwriting, in every deleted tuple, each cover attribute
// with a fresh constant. dist_upd ≤ |cover| · dist_sub(s, t).
func SubsetToUpdate(t, s *table.Table, cover schema.AttrSet) *table.Table {
	u := t.Clone()
	for _, r := range t.Rows() {
		if s.Has(r.ID) {
			continue
		}
		for _, a := range cover.Positions() {
			u.SetCellInPlace(r.ID, a, u.Fresh())
		}
	}
	return u
}
