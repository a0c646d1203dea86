package fdrepair

import (
	"fmt"
	"strings"

	"repro/internal/cfd"
	"repro/internal/fd"
)

// ConditionalFD is a conditional functional dependency (X → A, tp):
// an FD scoped by a pattern of constants and wildcards (Bohannon et
// al.; §5 future work). Unlike plain FDs, CFDs admit single-tuple
// violations, which become forced deletions in subset repairs.
type ConditionalFD = cfd.CFD

// CFDResult is a subset repair under CFDs with its forced-deletion
// accounting.
type CFDResult = cfd.Result

// CFDWildcard is the pattern entry matching any value.
const CFDWildcard = cfd.Wildcard

// NewConditionalFD builds a CFD from an embedded FD spec such as
// "country areaCode -> city", an lhs pattern (one entry per lhs
// attribute, constants or CFDWildcard) and an rhs pattern entry.
func NewConditionalFD(sc *Schema, spec string, lhsPattern []string, rhsPattern string) (*ConditionalFD, error) {
	f, err := fd.Parse(sc, spec)
	if err != nil {
		return nil, err
	}
	return cfd.New(sc, f, lhsPattern, rhsPattern)
}

// CFDSatisfies reports whether the table satisfies every CFD.
func CFDSatisfies(cs []*ConditionalFD, t *Table) bool { return cfd.Satisfies(cs, t) }

// ExactCFDSRepair computes an optimal subset repair under CFDs: unary
// violators are deleted outright, the remaining pairwise conflicts are
// resolved by exact minimum-weight vertex cover (size-guarded).
func ExactCFDSRepair(cs []*ConditionalFD, t *Table) (CFDResult, error) {
	return std.ExactCFDSRepair(cs, t)
}

// ApproxCFDSRepair is the polynomial 2-approximation under CFDs.
func ApproxCFDSRepair(cs []*ConditionalFD, t *Table) (CFDResult, error) {
	return std.ApproxCFDSRepair(cs, t)
}

// ParseConditionalFD parses a CFD from one textual spec: the embedded
// FD, optionally followed by "|" and a pattern tableau row, e.g.
//
//	"country areaCode -> city | 44,_ -> _"
//
// Pattern entries (constants or "_", one per lhs attribute in schema
// order, then one for the rhs) condition when the FD applies; without a
// "|" part every entry is a wildcard, i.e. the plain FD.
func ParseConditionalFD(sc *Schema, spec string) (*ConditionalFD, error) {
	embSpec, patSpec, hasPat := strings.Cut(spec, "|")
	f, err := fd.Parse(sc, strings.TrimSpace(embSpec))
	if err != nil {
		return nil, err
	}
	if !hasPat {
		return cfd.FromFD(sc, f)
	}
	lhsPart, rhsPat, ok := strings.Cut(patSpec, "->")
	if !ok {
		return nil, fmt.Errorf("fdrepair: CFD pattern %q: missing \"->\"", strings.TrimSpace(patSpec))
	}
	var lhsPat []string
	if s := strings.TrimSpace(lhsPart); s != "" {
		for _, p := range strings.Split(s, ",") {
			lhsPat = append(lhsPat, strings.TrimSpace(p))
		}
	}
	return cfd.New(sc, f, lhsPat, strings.TrimSpace(rhsPat))
}

// ExactCFDSRepair is the Solver-scoped ExactCFDSRepair: the conflict
// instance is built on the encoded engine under this solver's budget,
// arenas, cancellation and stats, and the branch-and-bound cover search
// honors the solver's deadline.
func (s *Solver) ExactCFDSRepair(cs []*ConditionalFD, t *Table) (CFDResult, error) {
	if err := s.begin(); err != nil {
		return CFDResult{}, err
	}
	defer s.end()
	return cfd.ExactSRepairCtx(s.ctx, cs, t)
}

// ApproxCFDSRepair is the Solver-scoped ApproxCFDSRepair on the encoded
// engine: linear in rows and conflict edges instead of quadratic in
// rows, with pattern groups fanned across the solver's workers.
func (s *Solver) ApproxCFDSRepair(cs []*ConditionalFD, t *Table) (CFDResult, error) {
	res := s.Solve(Request{CFDs: cs, Table: t, Algorithm: AlgoCFDSRepair})
	if res.Err != nil {
		return CFDResult{}, res.Err
	}
	return *res.CFD, nil
}
