// Package priority implements prioritized subset repairing in the
// framework of Staworko, Chomicki and Marcinkowski (cited as [29] and
// raised as future work in Section 5 of the paper): an acyclic priority
// relation ≻ between conflicting tuples eliminates subset repairs that
// are inferior to others.
//
// Supported notions (Staworko et al. 2012):
//
//   - completion-optimal repairs (c-repairs): produced by greedily
//     inserting tuples along a topological completion of ≻;
//   - Pareto-optimal repairs (p-repairs): no repair S′ has a tuple
//     t′ ∈ S′∖S preferred to every tuple of S∖S′;
//   - globally-optimal repairs (g-repairs): no repair S′ improves S
//     with every removed tuple dominated by some added one
//     (GRep ⊆ PRep ⊆ CRep).
//
// Optimality checks are enumeration-based (via internal/enumerate) and
// therefore limited to small instances; the greedy c-repair is
// polynomial, and its encoded engine (CRepairCtx) runs in
// O(n log n + |≻|) time for n tuples. The package also detects
// ambiguity — whether the priorities determine the repair uniquely —
// the question studied by Kimelfeld, Livshits and Peterfreund (cited
// as [23]).
package priority

import (
	"fmt"
	"sort"

	"repro/internal/enumerate"
	"repro/internal/fd"
	"repro/internal/table"
)

// Relation is a priority relation ≻ on tuple identifiers: Add(a, b)
// declares a ≻ b (a is preferred to b). The relation must be acyclic;
// Validate checks it, and so does Check on projection codes.
type Relation struct {
	prefers map[int]map[int]bool // a -> set of b with a ≻ b
}

// NewRelation returns an empty priority relation.
func NewRelation() *Relation {
	return &Relation{prefers: map[int]map[int]bool{}}
}

// Add declares a ≻ b.
func (r *Relation) Add(a, b int) {
	if r.prefers[a] == nil {
		r.prefers[a] = map[int]bool{}
	}
	r.prefers[a][b] = true
}

// Prefers reports whether a ≻ b was declared (no transitive closure;
// Staworko et al. treat ≻ as a base relation).
func (r *Relation) Prefers(a, b int) bool { return r.prefers[a][b] }

// Validate checks that the relation is acyclic, mentions only tuple
// identifiers of t, and (per the framework) only relates conflicting
// tuples.
func (r *Relation) Validate(ds *fd.Set, t *table.Table) error {
	conflicts := map[[2]int]bool{}
	for _, e := range t.ConflictGraph(ds) {
		conflicts[[2]int{e.ID1, e.ID2}] = true
		conflicts[[2]int{e.ID2, e.ID1}] = true
	}
	for a, bs := range r.prefers {
		if !t.Has(a) {
			return fmt.Errorf("priority: unknown tuple id %d", a)
		}
		for b := range bs {
			if !t.Has(b) {
				return fmt.Errorf("priority: unknown tuple id %d", b)
			}
			if !conflicts[[2]int{a, b}] {
				return fmt.Errorf("priority: %d ≻ %d relates non-conflicting tuples", a, b)
			}
		}
	}
	// Acyclicity by DFS.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	var visit func(v int) error
	visit = func(v int) error {
		color[v] = gray
		for b := range r.prefers[v] {
			switch color[b] {
			case gray:
				return fmt.Errorf("priority: cycle through %d and %d", v, b)
			case white:
				if err := visit(b); err != nil {
					return err
				}
			}
		}
		color[v] = black
		return nil
	}
	for a := range r.prefers {
		if color[a] == white {
			if err := visit(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// CRepair computes a completion-optimal repair: tuples are inserted
// greedily along a topological completion of ≻ (ties broken by tuple
// id, keeping the result deterministic); a tuple enters iff it stays
// consistent with the tuples chosen so far. The result is always a
// subset repair.
func CRepair(ds *fd.Set, t *table.Table, r *Relation) (*table.Table, error) {
	if err := r.Validate(ds, t); err != nil {
		return nil, err
	}
	order, err := topoOrder(t.IDs(), r)
	if err != nil {
		return nil, err
	}
	chosen := table.New(t.Schema())
	for _, id := range order {
		row, _ := t.Row(id)
		trial := chosen.Clone()
		trial.MustInsert(row.ID, row.Tuple, row.Weight)
		if trial.Satisfies(ds) {
			chosen = trial
		}
	}
	return chosen, nil
}

// topoOrder returns a total order of ids extending ≻ (preferred tuples
// first), Kahn's algorithm with id tie-breaking.
func topoOrder(ids []int, r *Relation) ([]int, error) {
	indeg := map[int]int{}
	for _, id := range ids {
		indeg[id] = 0
	}
	for a, bs := range r.prefers {
		if _, ok := indeg[a]; !ok {
			continue
		}
		for b := range bs {
			if _, ok := indeg[b]; ok {
				indeg[b]++
			}
		}
	}
	var ready []int
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	var out []int
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		var unlocked []int
		for b := range r.prefers[id] {
			if _, ok := indeg[b]; !ok {
				continue
			}
			indeg[b]--
			if indeg[b] == 0 {
				unlocked = append(unlocked, b)
			}
		}
		sort.Ints(unlocked)
		ready = mergeSorted(ready, unlocked)
	}
	if len(out) != len(ids) {
		return nil, fmt.Errorf("priority: relation is cyclic")
	}
	return out, nil
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// diff returns ids(s1) ∖ ids(s2).
func diff(s1, s2 *table.Table) []int {
	var out []int
	for _, id := range s1.IDs() {
		if !s2.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// isGlobalImprovement reports whether s2 globally improves s1: s2 ≠ s1
// and every tuple of s1∖s2 (removed) is dominated by some tuple of
// s2∖s1 (added). Every Pareto improvement is a global improvement, so
// fewer repairs are globally optimal: GRep ⊆ PRep.
func (r *Relation) isGlobalImprovement(s1, s2 *table.Table) bool {
	added := diff(s2, s1)
	removed := diff(s1, s2)
	if len(added) == 0 && len(removed) == 0 {
		return false
	}
	for _, b := range removed {
		ok := false
		for _, a := range added {
			if r.Prefers(a, b) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// isParetoImprovement reports whether s2 Pareto-improves s1: some tuple
// of s2∖s1 is preferred to every tuple of s1∖s2.
func (r *Relation) isParetoImprovement(s1, s2 *table.Table) bool {
	added := diff(s2, s1)
	removed := diff(s1, s2)
	if len(added) == 0 || len(removed) == 0 {
		return false
	}
	for _, a := range added {
		all := true
		for _, b := range removed {
			if !r.Prefers(a, b) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Optimal enumerates the subset repairs of t and splits them by
// optimality notion. Enumeration-bounded (≤ 64 tuples).
type Optimal struct {
	// All subset repairs.
	All []*table.Table
	// Pareto holds the p-repairs (no Pareto improvement exists).
	Pareto []*table.Table
	// Global holds the g-repairs (no global improvement exists).
	Global []*table.Table
}

// Compute classifies every subset repair of t under ds.
func Compute(ds *fd.Set, t *table.Table, r *Relation) (*Optimal, error) {
	if err := r.Validate(ds, t); err != nil {
		return nil, err
	}
	reps, count, err := enumerate.SubsetRepairs(ds, t, 0)
	if err != nil {
		return nil, err
	}
	if count != len(reps) {
		return nil, fmt.Errorf("priority: enumeration truncated (%d of %d)", len(reps), count)
	}
	out := &Optimal{All: reps}
	for _, s := range reps {
		pareto, global := true, true
		for _, s2 := range reps {
			if s == s2 {
				continue
			}
			if r.isParetoImprovement(s, s2) {
				pareto = false
			}
			if r.isGlobalImprovement(s, s2) {
				global = false
			}
			if !pareto && !global {
				break
			}
		}
		if pareto {
			out.Pareto = append(out.Pareto, s)
		}
		if global {
			out.Global = append(out.Global, s)
		}
	}
	return out, nil
}

// Unambiguous reports whether the priorities clean the database
// unambiguously: exactly one Pareto-optimal repair remains (the notion
// studied in [23]).
func Unambiguous(ds *fd.Set, t *table.Table, r *Relation) (bool, error) {
	opt, err := Compute(ds, t, r)
	if err != nil {
		return false, err
	}
	return len(opt.Pareto) == 1, nil
}
