package urepair

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/solve"
	"repro/internal/srepair"
	"repro/internal/table"
)

// approxComponent computes the combined approximation of Section 4.4 on
// a consensus-free component: run the 2·mlc(Δ) approximation of
// Theorem 4.12 and the KL-style heuristic, keep the cheaper update.
// The guaranteed ratio is the 2·mlc bound (the heuristic can only
// improve the incumbent).
func approxComponent(c *solve.Ctx, comp *fd.Set, t *table.Table) (Result, error) {
	u1, ratio, err := approx2MLCCtx(c, comp, t)
	if err != nil {
		return Result{}, err
	}
	cost1 := table.DistUpd(u1, t)
	best, bestCost := u1, cost1
	method := fmt.Sprintf("approx-2mlc (ratio ≤ %g)", ratio)

	if err := c.Err(); err != nil {
		return Result{}, err
	}
	if u2, ok := KLHeuristic(comp, t); ok {
		if cost2 := table.DistUpd(u2, t); table.WeightLess(cost2, bestCost) {
			best, bestCost = u2, cost2
			method = fmt.Sprintf("approx-kl (guaranteed ratio ≤ %g from 2mlc run)", ratio)
		}
	}
	return Result{
		Update:     best,
		Cost:       bestCost,
		Exact:      false,
		RatioBound: ratio,
		Method:     method,
	}, nil
}

// Approx2MLC is Theorem 4.12: a (2·mlc(Δ))-optimal U-repair for a
// consensus-free FD set, obtained by composing the 2-approximate
// S-repair of Proposition 3.3 with the subset→update construction of
// Proposition 4.4. Returns the update and the guaranteed ratio.
func Approx2MLC(ds *fd.Set, t *table.Table) (*table.Table, float64) {
	u, ratio, err := approx2MLCCtx(solve.Default(), ds, t)
	if err != nil {
		panic(err) // the default context is non-cancellable
	}
	return u, ratio
}

// approx2MLCCtx is Approx2MLC under a solve context; the only error it
// can return is the context's cancellation error.
func approx2MLCCtx(c *solve.Ctx, ds *fd.Set, t *table.Table) (*table.Table, float64, error) {
	cover, size, ok := ds.MinLHSCover()
	if !ok {
		panic("urepair: Approx2MLC requires a consensus-free FD set")
	}
	s, err := srepair.Approx2Ctx(c, ds, t)
	if err != nil {
		if cerr := c.Err(); cerr != nil {
			return nil, 0, cerr
		}
		panic(err) // Approx2 fails only on schema mismatch, checked upstream
	}
	return SubsetToUpdate(t, s, cover), 2 * float64(size), nil
}

// klPassBudgetFactor bounds the number of majority-chase passes.
const klPassBudgetFactor = 3

// KLHeuristic is a Kolahi–Lakshmanan-style update heuristic (a
// stand-in written for this repository, not a port of their
// algorithm): it repeatedly resolves
// each violated FD X → Y by overwriting, within every X-group, the
// disagreeing right-hand sides with the group's weighted-majority
// value; if the chase does not converge it falls back to freshening
// the lhs-cover cells of every still-conflicting tuple (the
// Proposition 4.4 construction), which always restores consistency.
// Returns ok=false only for FD sets with consensus FDs.
func KLHeuristic(ds *fd.Set, t *table.Table) (*table.Table, bool) {
	cover, _, ok := ds.MinLHSCover()
	if !ok {
		return nil, false
	}
	can := ds.Canonical()
	u := t.Clone()
	passes := klPassBudgetFactor*can.Len() + 5
	for p := 0; p < passes && !u.Satisfies(can); p++ {
		for _, f := range can.FDs() {
			a := f.RHS.First()
			for _, g := range u.GroupBy(f.LHS) {
				if len(g.IDs) < 2 {
					continue
				}
				// Weighted majority of the rhs value within the group.
				weightOf := map[string]float64{}
				order := []string{}
				for _, id := range g.IDs {
					r, _ := u.Row(id)
					v := r.Tuple[a]
					if _, seen := weightOf[v]; !seen {
						order = append(order, v)
					}
					weightOf[v] += t.Weight(id)
				}
				if len(order) < 2 {
					continue
				}
				best := order[0]
				for _, v := range order[1:] {
					if weightOf[v] > weightOf[best] {
						best = v
					}
				}
				for _, id := range g.IDs {
					if r, _ := u.Row(id); r.Tuple[a] != best {
						u.SetCellInPlace(id, a, best)
					}
				}
			}
		}
	}
	if !u.Satisfies(can) {
		// Fallback: freshen the cover cells of every tuple that still
		// participates in a violation; afterwards conflicting pairs
		// cannot agree on any lhs, so the table is consistent.
		dirty := map[int]bool{}
		for _, v := range u.Violations(can, 0) {
			dirty[v.ID1] = true
			dirty[v.ID2] = true
		}
		for _, r := range u.Rows() {
			if !dirty[r.ID] {
				continue
			}
			for _, a := range cover.Positions() {
				u.SetCellInPlace(r.ID, a, u.Fresh())
			}
		}
	}
	if !u.Satisfies(ds) {
		return nil, false
	}
	return u, true
}
