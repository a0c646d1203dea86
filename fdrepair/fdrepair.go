package fdrepair

import (
	"fmt"
	"strings"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/srepair"
	"repro/internal/table"
	"repro/internal/urepair"
)

// Schema is a relation schema R(A1, ..., Ak).
type Schema = schema.Schema

// AttrSet is a set of attribute positions of a schema.
type AttrSet = schema.AttrSet

// FD is a functional dependency X → Y.
type FD = fd.FD

// FDSet is a set of functional dependencies over a schema.
type FDSet = fd.Set

// Table is a weighted table with tuple identifiers.
type Table = table.Table

// Tuple is a sequence of attribute values.
type Tuple = table.Tuple

// CellUpdate is one cell assignment for Session.SetCells.
type CellUpdate = table.CellUpdate

// URepairResult reports an update repair, its cost, and its guarantee.
type URepairResult = urepair.Result

// NewSchema constructs a schema; see schema.New.
func NewSchema(name string, attrs ...string) (*Schema, error) { return schema.New(name, attrs...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(name string, attrs ...string) *Schema { return schema.MustNew(name, attrs...) }

// ParseFDs parses FD specs of the form "A B -> C" into an FD set.
func ParseFDs(sc *Schema, specs ...string) (*FDSet, error) { return fd.ParseSet(sc, specs...) }

// MustFDs is ParseFDs that panics on error.
func MustFDs(sc *Schema, specs ...string) *FDSet { return fd.MustParseSet(sc, specs...) }

// NewTable returns an empty table over the schema.
func NewTable(sc *Schema) *Table { return table.New(sc) }

// DistSub is dist_sub(s, t): the weight of tuples of t missing from s.
func DistSub(s, t *Table) float64 { return table.DistSub(s, t) }

// DistUpd is dist_upd(u, t): the weighted Hamming distance.
func DistUpd(u, t *Table) float64 { return table.DistUpd(u, t) }

// Classification summarizes what the dichotomy of Theorem 3.4 (and the
// U-repair results of Section 4) say about an FD set.
type Classification struct {
	// SRepairPolyTime reports whether OptSRepair succeeds (Algorithm 2);
	// equivalently, whether computing an optimal S-repair — and solving
	// MPD (Theorem 3.10) — is polynomial-time. When false, the problem
	// is APX-complete.
	SRepairPolyTime bool
	// Trace is the chain of simplifications in the style of Example 3.5.
	Trace []string
	// HardClass names the Figure-2 class and Table-1 base set witnessing
	// APX-hardness (empty when SRepairPolyTime).
	HardClass string
	// URepairExact reports whether the U-repair planner solves the set
	// exactly (a sufficient condition per Section 4; the full U-repair
	// dichotomy is open).
	URepairExact bool
}

// Classify runs the dichotomy test and the U-repair planner's case
// analysis on the FD set.
func Classify(ds *FDSet) Classification {
	steps, ok := srepair.Trace(ds)
	out := Classification{SRepairPolyTime: ok}
	for _, st := range steps {
		out.Trace = append(out.Trace, st.Describe())
	}
	if !ok {
		// Classify the set the simplification chain got stuck on.
		stuck := ds
		if len(steps) > 0 {
			stuck = steps[len(steps)-1].After
		}
		if cl, err := stuck.Canonical().ClassifyNonSimplifiable(); err == nil {
			out.HardClass = fmt.Sprintf("%v (reduce from %s)", cl.Class, cl.Class.BaseSet())
		}
	}
	out.URepairExact = urepair.ExactPlan(ds)
	return out
}

// std is the package-level Solver behind the package-level functions:
// serial, never closed, and running on solve.Default, the same
// immutable context the internal ctx-less wrappers use, so the process
// has one serial default.
var std = &Solver{ctx: solve.Default()}

// ErrNoSimplification is returned by the polynomial S-repair entry
// points (OptimalSRepair, Session.Repair) when the FD set cannot be
// reduced to a trivial set by the paper's three simplifications — the
// APX-hard side of the dichotomy. Fall back to ExactSRepair (small
// instances) or ApproxSRepair.
var ErrNoSimplification = srepair.ErrNoSimplification

// OptimalSRepair computes an optimal S-repair with the paper's
// polynomial algorithm (Algorithm 1). It fails with an error wrapping
// ErrNoSimplification when the FD set is on the hard side of the
// dichotomy; use ExactSRepair or ApproxSRepair then.
func OptimalSRepair(ds *FDSet, t *Table) (*Table, float64, error) { return std.OptimalSRepair(ds, t) }

// ExactSRepair computes an optimal S-repair for any FD set via exact
// minimum-weight vertex cover on the conflict graph. Exponential in the
// worst case and size-limited; intended for baselines and validation.
func ExactSRepair(ds *FDSet, t *Table) (*Table, float64, error) { return std.ExactSRepair(ds, t) }

// ApproxSRepair computes a 2-optimal S-repair in polynomial time for
// any FD set (Proposition 3.3).
func ApproxSRepair(ds *FDSet, t *Table) (*Table, float64, error) { return std.ApproxSRepair(ds, t) }

// OptimalURepair runs the Section-4 planner: exact on the paper's
// tractable cases, combined approximation otherwise. Inspect
// Result.Exact and Result.RatioBound.
func OptimalURepair(ds *FDSet, t *Table) (URepairResult, error) { return std.OptimalURepair(ds, t) }

// ExactURepair computes an optimal U-repair by exhaustive search on
// tiny instances (validation only).
func ExactURepair(ds *FDSet, t *Table) (*Table, float64, error) {
	return urepair.Exact(ds, t)
}

// MostProbableDatabase solves MPD (Section 3.4): tuple weights are read
// as independent probabilities in (0,1], and the most probable
// consistent subset is returned with its probability.
func MostProbableDatabase(ds *FDSet, t *Table) (*Table, float64, error) {
	return std.MostProbableDatabase(ds, t)
}

// ExplainTrace renders a Classification's simplification chain like
// Example 3.5: "common lhs facility ⇛ consensus ∅ → city ⇛ ...".
func ExplainTrace(c Classification) string {
	if len(c.Trace) == 0 {
		if c.SRepairPolyTime {
			return "(already trivial)"
		}
		return "(no simplification applies)"
	}
	s := strings.Join(c.Trace, " ⇛ ")
	if c.SRepairPolyTime {
		return s + " ⇛ {}"
	}
	return s + " ⇛ STUCK"
}
