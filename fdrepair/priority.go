package fdrepair

import (
	"repro/internal/priority"
)

// PriorityRelation is an acyclic preference relation between
// conflicting tuples (a ≻ b: tuple a is more trusted than b), in the
// prioritized-repairing framework of Staworko et al. raised as future
// work in Section 5 of the paper.
type PriorityRelation = priority.Relation

// NewPriority returns an empty priority relation; declare preferences
// with Add(a, b) for tuple identifiers a ≻ b.
func NewPriority() *PriorityRelation { return priority.NewRelation() }

// PrioritizedRepair computes a completion-optimal repair: tuples enter
// greedily along a topological completion of the priorities, the
// smallest tuple id first among the tuples ready to enter. Runs in
// O(n log n + |≻|) time for n tuples and |≻| preferences.
func PrioritizedRepair(ds *FDSet, t *Table, r *PriorityRelation) (*Table, error) {
	return std.PrioritizedRepair(ds, t, r)
}

// PrioritizedRepair is the Solver-scoped PrioritizedRepair: admission
// runs on cached projection codes, and conflict strata are processed
// as independent tasks across the solver's workers. A nil relation
// means no preferences. A relation naming an unknown tuple, relating
// two tuples that do not conflict, or cyclic is an error.
func (s *Solver) PrioritizedRepair(ds *FDSet, t *Table, r *PriorityRelation) (*Table, error) {
	res := s.Solve(Request{FDs: ds, Table: t, Priority: r, Algorithm: AlgoPriorityRepair})
	return res.Table, res.Err
}

// PrioritizedOptimal enumerates all subset repairs and classifies them
// into Pareto-optimal and globally-optimal ones under the priorities.
// Enumeration-bounded; small instances only.
type PrioritizedOptimal = priority.Optimal

// ClassifyPrioritized computes the optimal-repair classification.
func ClassifyPrioritized(ds *FDSet, t *Table, r *PriorityRelation) (*PrioritizedOptimal, error) {
	return priority.Compute(ds, t, r)
}

// UnambiguousUnder reports whether the priorities determine the repair
// uniquely (exactly one Pareto-optimal repair remains) — the cleaning
// question posed at the end of Section 5.
func UnambiguousUnder(ds *FDSet, t *Table, r *PriorityRelation) (bool, error) {
	return priority.Unambiguous(ds, t, r)
}
