package fdrepair

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cfd"
	"repro/internal/cqa"
	"repro/internal/denial"
	"repro/internal/mpd"
	"repro/internal/priority"
	"repro/internal/solve"
	"repro/internal/srepair"
	"repro/internal/table"
	"repro/internal/urepair"
)

// Algorithm selects the repair computation a Request runs.
type Algorithm int

const (
	// AlgoOptimalSRepair is Solver.OptimalSRepair (Algorithm 1; fails
	// with srepair.ErrNoSimplification on the hard side of the
	// dichotomy). The zero value, so the default for a Request.
	AlgoOptimalSRepair Algorithm = iota
	// AlgoExactSRepair is Solver.ExactSRepair (exponential baseline).
	AlgoExactSRepair
	// AlgoApproxSRepair is Solver.ApproxSRepair (2-approximation).
	AlgoApproxSRepair
	// AlgoOptimalURepair is Solver.OptimalURepair; the update and its
	// guarantees are returned in BatchResult.URepair.
	AlgoOptimalURepair
	// AlgoMostProbable is Solver.MostProbableDatabase; Cost carries the
	// probability.
	AlgoMostProbable
	// AlgoCFDSRepair repairs under the request's conditional FDs
	// (Request.CFDs) on the encoded engine: forced unary violators plus
	// the polynomial 2-approximate conflict cover. The full
	// forced-deletion accounting lands in BatchResult.CFD.
	AlgoCFDSRepair
	// AlgoDenialSRepair repairs under the request's binary denial
	// constraints (Request.Denial; when empty, the request's FDs are
	// translated via FDsAsDenial) with the polynomial 2-approximate
	// cover on the encoded engine.
	AlgoDenialSRepair
	// AlgoCQA computes the certain/possible answers of Request.Query
	// under the request's FDs on the encoded component-factorized
	// engine; the answers land in BatchResult.CQA.
	AlgoCQA
	// AlgoPriorityRepair computes the completion-optimal repair under
	// Request.Priority (nil = no preferences) on the encoded engine.
	AlgoPriorityRepair
	// AlgoAuto is the paper's dichotomy as a dispatch rule: Algorithm 1
	// (AlgoOptimalSRepair) when the simplifications reach a trivial FD
	// set, and otherwise — ErrNoSimplification, the APX-complete side —
	// the Proposition 3.3 2-approximation (AlgoApproxSRepair) with
	// BatchResult.Degraded set.
	AlgoAuto
)

// algoEntry is one row of the algorithm table.
type algoEntry struct {
	name  string                 // canonical name: String, fdrepaird's X-Repair-Algorithm
	alias string                 // short name: fdrepair -mode, fdrepaird algo=
	check func(r *Request) error // the inputs the algorithm consumes
	run   runFunc
}

// runFunc runs one checked request on c and records its outcome in res.
type runFunc func(c *solve.Ctx, r *Request, res *BatchResult) error

// algorithms is the one algorithm table, indexed by Algorithm. Every
// surface reads it: String and ParseAlgorithm (so the CLI's -mode and
// fdrepaird's algo=), ParseRequest, the per-request runner behind
// SolveBatch, Stream and the Solver methods, and through those the
// package-level functions. Adding an algorithm is adding a row.
var algorithms = [...]algoEntry{
	AlgoOptimalSRepair: {"optimal-srepair", "optimal", needFDs, runOptimal},
	AlgoExactSRepair:   {"exact-srepair", "exact", needFDs, runExact},
	AlgoApproxSRepair:  {"approx-srepair", "approx", needFDs, runApprox},
	AlgoOptimalURepair: {"optimal-urepair", "urepair", needFDs, runURepair},
	AlgoMostProbable:   {"most-probable", "mpd", needFDs, runMostProbable},
	AlgoCFDSRepair:     {"cfd-srepair", "cfd", needCFDs, runCFD},
	AlgoDenialSRepair:  {"denial-srepair", "denial", needDenial, runDenial},
	AlgoCQA:            {"cqa", "cqa", needQuery, runCQA},
	AlgoPriorityRepair: {"priority-repair", "priority", needPriority, runPriority},
	AlgoAuto:           {"auto", "auto", needFDs, runAuto},
}

// Algorithms returns every algorithm in table order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(algorithms))
	for i := range out {
		out[i] = Algorithm(i)
	}
	return out
}

func (a Algorithm) known() bool { return a >= 0 && int(a) < len(algorithms) }

// String returns the algorithm's canonical name, as reports, CLI
// summaries and fdrepaird's X-Repair-Algorithm header print it.
func (a Algorithm) String() string {
	if !a.known() {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithms[a].name
}

// Alias returns the algorithm's short name, the one fdrepair -mode and
// fdrepaird algo= document ("optimal", "urepair", "cqa", ...).
func (a Algorithm) Alias() string {
	if !a.known() {
		return a.String()
	}
	return algorithms[a].alias
}

// ParseAlgorithm looks an algorithm up by its canonical name or its
// alias; the error for an unknown name lists every alias.
func ParseAlgorithm(name string) (Algorithm, error) {
	aliases := make([]string, len(algorithms))
	for i, e := range algorithms {
		if name == e.name || name == e.alias {
			return Algorithm(i), nil
		}
		aliases[i] = e.alias
	}
	return 0, fmt.Errorf("unknown algorithm %q (%s)", name, strings.Join(aliases, "|"))
}

// check reports why r cannot run: an algorithm outside the table, a nil
// Table, or a missing input its algorithm consumes.
func (r *Request) check() error {
	if !r.Algorithm.known() {
		return fmt.Errorf("fdrepair: unknown algorithm %v", r.Algorithm)
	}
	if r.Table == nil {
		return fmt.Errorf("fdrepair: %v: nil Table", r.Algorithm)
	}
	if err := algorithms[r.Algorithm].check(r); err != nil {
		return fmt.Errorf("fdrepair: %v needs %v", r.Algorithm, err)
	}
	return nil
}

func needFDs(r *Request) error {
	if r.FDs == nil {
		return errors.New("an FD set (fd)")
	}
	return nil
}

func needCFDs(r *Request) error {
	if len(r.CFDs) == 0 {
		return errors.New("at least one conditional FD (cfd)")
	}
	return nil
}

func needDenial(r *Request) error {
	if len(r.Denial) == 0 && r.FDs == nil {
		return errors.New("denial constraints (dc) or an FD set (fd)")
	}
	return nil
}

func needQuery(r *Request) error {
	if r.FDs == nil || r.Query == nil {
		return errors.New("an FD set (fd) and a query (project)")
	}
	return nil
}

// needPriority also validates Request.Priority with the check the
// priority engine runs before it solves, so an invalid relation fails
// here, before any solve starts.
func needPriority(r *Request) error {
	if err := needFDs(r); err != nil || r.Priority == nil {
		return err
	}
	if err := r.Priority.Check(r.FDs, r.Table); err != nil {
		return fmt.Errorf("a valid priority relation (prefer): %w", err)
	}
	return nil
}

// keepSubset records the subset repair rep of t and its dist_sub cost
// when the engine succeeded, passing the engine's error through.
func keepSubset(res *BatchResult, t, rep *Table, err error) error {
	if err == nil {
		res.Table, res.Cost = rep, table.DistSub(rep, t)
	}
	return err
}

func runOptimal(c *solve.Ctx, r *Request, res *BatchResult) error {
	rep, err := srepair.OptSRepairCtx(c, r.FDs, r.Table)
	return keepSubset(res, r.Table, rep, err)
}

func runExact(c *solve.Ctx, r *Request, res *BatchResult) error {
	rep, err := srepair.ExactCtx(c, r.FDs, r.Table)
	return keepSubset(res, r.Table, rep, err)
}

func runApprox(c *solve.Ctx, r *Request, res *BatchResult) error {
	rep, err := srepair.Approx2Ctx(c, r.FDs, r.Table)
	return keepSubset(res, r.Table, rep, err)
}

// degrade runs the 2-approximation in place of an optimal or exact
// solve that could not finish, and marks the result Degraded.
func degrade(c *solve.Ctx, r *Request, res *BatchResult) error {
	if err := runApprox(c, r, res); err != nil {
		return err
	}
	res.Degraded = true
	return nil
}

func runAuto(c *solve.Ctx, r *Request, res *BatchResult) error {
	if err := runOptimal(c, r, res); !errors.Is(err, srepair.ErrNoSimplification) {
		return err
	}
	return degrade(c, r, res)
}

// exactWithFallback runs an AlgoExactSRepair request under the
// WithApproxFallback budget: the exact solve gets its own deadline of
// budget (clamped by the request's deadline, which stays in force); if
// the budget — and only the budget — expires, the request degrades to
// the 2-approximation under the request's remaining deadline instead
// of failing. rctx is the request's own cancellation source (nil = the
// solver's base).
func exactWithFallback(c *solve.Ctx, rctx context.Context, st *solve.Stats, budget time.Duration, r *Request, res *BatchResult) error {
	sub, cancel := withTimeout(c, rctx, budget)
	err := runExact(c.Scoped(sub, st), r, res)
	cancel()
	if err == nil || !errors.Is(err, context.DeadlineExceeded) || (rctx != nil && rctx.Err() != nil) {
		// Success, a genuine failure, or the request's own deadline (not
		// the exact budget) expired: no point degrading.
		return err
	}
	return degrade(c, r, res)
}

func runURepair(c *solve.Ctx, r *Request, res *BatchResult) error {
	ur, err := urepair.RepairCtx(c, r.FDs, r.Table)
	if err == nil {
		res.URepair = &ur
		res.Table, res.Cost = ur.Update, ur.Cost
	}
	return err
}

func runMostProbable(c *solve.Ctx, r *Request, res *BatchResult) error {
	rep, err := mpd.SolveCtx(c, r.FDs, r.Table)
	if err == nil {
		res.Table, res.Cost = rep, mpd.Probability(r.Table, rep)
	}
	return err
}

// The CFD and denial rows run the 2-approximation; the Solver's exact
// CFD and denial methods run the exact engine behind the same input
// check.
var (
	runCFD         = cfdRun(cfd.Approx2SRepairCtx)
	runExactCFD    = cfdRun(cfd.ExactSRepairCtx)
	runDenial      = denialRun(denial.Approx2SRepairCtx)
	runExactDenial = denialRun(denial.ExactSRepairCtx)
)

func cfdRun(engine func(*solve.Ctx, []*cfd.CFD, *table.Table) (cfd.Result, error)) runFunc {
	return func(c *solve.Ctx, r *Request, res *BatchResult) error {
		cr, err := engine(c, r.CFDs, r.Table)
		if err == nil {
			res.Table, res.Cost, res.CFD = cr.Repair, cr.TotalCost, &cr
		}
		return err
	}
}

func denialRun(engine func(*solve.Ctx, []*denial.Constraint, *table.Table) (*table.Table, error)) runFunc {
	return func(c *solve.Ctx, r *Request, res *BatchResult) error {
		cs := r.Denial
		if len(cs) == 0 {
			var err error
			if cs, err = denial.FromFDSet(r.FDs); err != nil {
				return err
			}
		}
		rep, err := engine(c, cs, r.Table)
		return keepSubset(res, r.Table, rep, err)
	}
}

func runCQA(c *solve.Ctx, r *Request, res *BatchResult) (err error) {
	res.CQA, err = cqa.ConsistentAnswersCtx(c, r.FDs, r.Table, r.Query)
	return err
}

func runPriority(c *solve.Ctx, r *Request, res *BatchResult) error {
	rel := r.Priority
	if rel == nil {
		rel = priority.NewRelation()
	}
	rep, err := priority.CRepairCtx(c, r.FDs, r.Table, rel)
	return keepSubset(res, r.Table, rep, err)
}
