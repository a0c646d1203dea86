package fdrepair

import (
	"repro/internal/denial"
)

// DenialConstraint is a binary denial constraint, generalizing FDs with
// order comparisons (Section 5 future work, direction 1): a conjunction
// of atoms over two tuple variables that no pair of tuples may satisfy.
type DenialConstraint = denial.Constraint

// ParseDenial parses a constraint such as
// "t1.rank < t2.rank & t1.salary > t2.salary".
func ParseDenial(sc *Schema, spec string) (*DenialConstraint, error) {
	return denial.Parse(sc, spec)
}

// FDsAsDenial translates an FD set into equivalent denial constraints.
func FDsAsDenial(ds *FDSet) ([]*DenialConstraint, error) {
	return denial.FromFDSet(ds)
}

// DenialSatisfies reports whether the table violates none of the
// constraints.
func DenialSatisfies(cs []*DenialConstraint, t *Table) bool {
	return denial.Satisfies(cs, t)
}

// ExactDenialSRepair computes an optimal S-repair under binary denial
// constraints (exponential baseline; APX-hard already for FDs).
func ExactDenialSRepair(cs []*DenialConstraint, t *Table) (*Table, float64, error) {
	return std.ExactDenialSRepair(cs, t)
}

// ApproxDenialSRepair computes a 2-optimal S-repair in polynomial time
// (Proposition 3.3 carries over to binary denial constraints).
func ApproxDenialSRepair(cs []*DenialConstraint, t *Table) (*Table, float64, error) {
	return std.ApproxDenialSRepair(cs, t)
}

// ExactDenialSRepair is the Solver-scoped ExactDenialSRepair: conflicts
// are found on the encoded engine (per-column compiled keys, constraint
// units fanned across the solver's workers) and the branch-and-bound
// cover search honors the solver's deadline.
func (sv *Solver) ExactDenialSRepair(cs []*DenialConstraint, t *Table) (*Table, float64, error) {
	if err := sv.begin(); err != nil {
		return nil, 0, err
	}
	defer sv.end()
	s, err := denial.ExactSRepairCtx(sv.ctx, cs, t)
	if err != nil {
		return nil, 0, err
	}
	return s, DistSub(s, t), nil
}

// ApproxDenialSRepair is the Solver-scoped ApproxDenialSRepair on the
// encoded engine: values parse once per cell instead of once per
// compared pair, and equality atoms prune the pair scan to join groups.
func (sv *Solver) ApproxDenialSRepair(cs []*DenialConstraint, t *Table) (*Table, float64, error) {
	res := sv.Solve(Request{Denial: cs, Table: t, Algorithm: AlgoDenialSRepair})
	return res.Table, res.Cost, res.Err
}
