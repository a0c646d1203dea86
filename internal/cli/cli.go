// Package cli implements the fdrepair command line: computing optimal
// and approximate repairs of a CSV table under functional dependencies,
// and explaining the complexity of an FD set under the dichotomy of
// Livshits, Kimelfeld & Roy (PODS'18). It lives in a package (rather
// than in cmd/) so the flag plumbing and CSV round trips are testable;
// cmd/fdrepair is a thin shim over Run.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/fdrepair"
	"repro/internal/fd"
	"repro/internal/table"
	"repro/internal/workload"
)

type fdFlags []string

func (f *fdFlags) String() string     { return strings.Join(*f, "; ") }
func (f *fdFlags) Set(s string) error { *f = append(*f, s); return nil }

// Run executes the CLI with the given arguments (excluding the program
// name), writing to the supplied streams. It returns the process exit
// code.
func Run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "classify":
		err = cmdClassify(args[1:], stdout, stderr)
	case "srepair", "urepair", "mpd":
		err = cmdRepair(args[0], repairCmds[args[0]], args[1:], stdout, stderr)
	case "verify":
		err = cmdVerify(args[1:], stdout, stderr)
	case "batch":
		err = cmdBatch(args[1:], stdout, stderr)
	case "count":
		err = cmdCount(args[1:], stdout, stderr)
	case "gen":
		err = cmdGen(args[1:], stdout, stderr)
	case "entails":
		err = cmdEntails(args[1:], stdout, stderr)
	case "demo":
		err = cmdDemo(stdout)
	case "-h", "--help", "help":
		usage(stdout)
	default:
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "fdrepair:", err)
		return 1
	}
	return 0
}

// repairCmd is a one-file repair subcommand: its -mode takes algos
// (the first is the default; a single algorithm means no -mode flag),
// diff says whether it takes -diff, and summary prints its result line.
type repairCmd struct {
	algos   []fdrepair.Algorithm
	inUsage string
	diff    bool
	summary func(w io.Writer, res fdrepair.BatchResult, in *fdrepair.Table)
}

var repairCmds = map[string]repairCmd{
	"srepair": {
		algos:   []fdrepair.Algorithm{fdrepair.AlgoAuto, fdrepair.AlgoOptimalSRepair, fdrepair.AlgoExactSRepair, fdrepair.AlgoApproxSRepair},
		inUsage: "input CSV",
		diff:    true,
		summary: func(w io.Writer, res fdrepair.BatchResult, in *fdrepair.Table) {
			if res.Degraded {
				fmt.Fprintln(w, apxNote)
			}
			fmt.Fprintf(w, "deleted weight (dist_sub): %g; kept %d of %d tuples\n", res.Cost, res.Table.Len(), in.Len())
		},
	},
	"urepair": {
		algos:   []fdrepair.Algorithm{fdrepair.AlgoOptimalURepair},
		inUsage: "input CSV",
		diff:    true,
		summary: func(w io.Writer, res fdrepair.BatchResult, _ *fdrepair.Table) {
			fmt.Fprintf(w, "updated-cell cost (dist_upd): %g; %s; method: %s\n", res.Cost, urepairStatus(res.URepair), res.URepair.Method)
		},
	},
	"mpd": {
		algos:   []fdrepair.Algorithm{fdrepair.AlgoMostProbable},
		inUsage: "input CSV (weights are probabilities in (0,1])",
		summary: func(w io.Writer, res fdrepair.BatchResult, in *fdrepair.Table) {
			fmt.Fprintf(w, "most probable database: %d of %d tuples, probability %.6g\n", res.Table.Len(), in.Len(), res.Cost)
		},
	},
}

// urepairStatus renders an update repair's guarantee.
func urepairStatus(u *fdrepair.URepairResult) string {
	if u.Exact {
		return "optimal"
	}
	return fmt.Sprintf("approximate (ratio ≤ %g)", u.RatioBound)
}

// modes renders algorithms as the -mode vocabulary, e.g. "auto|exact".
func modes(algos []fdrepair.Algorithm) string {
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Alias()
	}
	return strings.Join(names, "|")
}

// apxNote is printed when auto mode meets an FD set on the hard side of
// the dichotomy and degrades to the 2-approximation.
const apxNote = "note: FD set is APX-hard; using the 2-approximation (pass -mode exact for the exponential baseline)"

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: fdrepair <classify|srepair|verify|batch|urepair|mpd|count|gen|entails|demo> [flags]
  classify -attrs A,B,C -fd "A -> B" [-fd ...]     explain the dichotomy for an FD set
  srepair  -in t.csv -fd "A -> B" [-mode %s] [-out s.csv]
  verify   -in t.csv -fd "A -> B" [-out s.csv]     impact report of an optimal S-repair:
           violations per FD and cells changed per block, before vs after
  batch    -in a.csv -in b.csv ... -fd "A -> B"
           [-mode %s]
           [-outdir DIR] [-workers N] [-timeout 30s]   repair many CSVs as one batch
           constraint-extension modes: -mode cfd -cfd "X -> A | p,_ -> _";
           -mode denial -dc "t1.a < t2.a & ...";  -mode cqa -project A,B
           [-where attr=value];  -mode priority [-prefer id>id]
  urepair  -in t.csv -fd "A -> B" [-out u.csv]
  mpd      -in t.csv -fd "A -> B" [-out m.csv]     weights read as probabilities
  count    -in t.csv -fd "A -> B" [-list N]        count/enumerate subset repairs
  gen      [-kind dirty|uniform|zipf|flights|office] [-n 100] [-dirty 0.1] [-out t.csv]
  entails  -attrs A,B,C -fd "A -> B" -fd "B -> C" -check "A -> C"   derivation proof
  demo                                             run the paper's Figure-1 example

srepair/urepair/mpd solver flags: -workers N (parallel blocks),
-timeout 30s (abort the solve on a deadline), -stats (print solve
counters to stderr). In batch mode the worker budget is shared by the
whole batch and -timeout is a per-request deadline: one slow file
times out alone while the rest of the batch completes.
`, modes(repairCmds["srepair"].algos), modes(fdrepair.Algorithms()))
}

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// solverFlags registers the per-solve engine flags shared by the
// repair commands (srepair, urepair, mpd) and returns a builder that
// turns them into a configured fdrepair.Solver plus a cleanup function
// (cancelling the deadline context) and a stats reporter (a no-op
// unless -stats was given).
func solverFlags(fs *flag.FlagSet) func(stderr io.Writer) (*fdrepair.Solver, func(), func()) {
	workers := fs.Int("workers", 1, "worker budget for independent repair blocks (1 = serial)")
	timeout := fs.Duration("timeout", 0, "abort the solve after this duration (0 = no deadline)")
	stats := fs.Bool("stats", false, "print every solve counter (nodes, scheduler tasks, matcher paths, planner decisions, engine counts, arena reuse, panics) to stderr")
	return func(stderr io.Writer) (*fdrepair.Solver, func(), func()) {
		opts := []fdrepair.SolverOption{fdrepair.WithParallelism(*workers)}
		cancel := func() {}
		if *timeout > 0 {
			var ctx context.Context
			ctx, cancel = context.WithTimeout(context.Background(), *timeout)
			opts = append(opts, fdrepair.WithContext(ctx))
		}
		if *stats {
			opts = append(opts, fdrepair.WithStats())
		}
		sv := fdrepair.NewSolver(opts...)
		report := func() {}
		if *stats {
			report = func() { fmt.Fprintln(stderr, statsLine(sv.Stats())) }
		}
		return sv, cancel, report
	}
}

// statsLine renders every solve counter as name=value, in counter
// order under its JSON name.
func statsLine(s fdrepair.SolveStats) string {
	var b strings.Builder
	b.WriteString("solve stats:")
	for name, v := range s.Counters() {
		fmt.Fprintf(&b, " %s=%d", name, v)
	}
	return b.String()
}

// loadTable streams a CSV file through the chunked ingester: peak
// memory is the encoded table plus one chunk, not the file size (see
// table.IngestCSV).
func loadTable(path string) (*fdrepair.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return table.IngestCSV(f, "T")
}

// inputFlags registers the -in and -fd flags of a one-file command and
// returns their loader: the table streamed from -in and the FD set
// parsed against its header.
func inputFlags(fs *flag.FlagSet, inUsage string) func() (*fdrepair.Table, *fdrepair.FDSet, error) {
	in := fs.String("in", "", inUsage)
	var specs fdFlags
	fs.Var(&specs, "fd", "functional dependency (repeatable)")
	return func() (*fdrepair.Table, *fdrepair.FDSet, error) {
		if *in == "" {
			return nil, nil, errors.New("-in is required")
		}
		t, err := loadTable(*in)
		if err != nil {
			return nil, nil, err
		}
		ds, err := parseFDs(t.Schema(), specs)
		return t, ds, err
	}
}

func parseFDs(sc *fdrepair.Schema, specs fdFlags) (*fdrepair.FDSet, error) {
	if len(specs) == 0 {
		return nil, errors.New("at least one -fd is required")
	}
	return fdrepair.ParseFDs(sc, specs...)
}

func writeOut(t *fdrepair.Table, path string, stdout io.Writer) error {
	if path == "" {
		fmt.Fprint(stdout, t.String())
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// writeDiff prints the human-readable change summary of a repair.
func writeDiff(orig, repaired *fdrepair.Table, stdout io.Writer) error {
	d, err := table.DiffTables(orig, repaired)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, d.Render(orig.Schema()))
	return nil
}

func cmdClassify(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("classify", stderr)
	attrs := fs.String("attrs", "", "comma-separated attribute list")
	var specs fdFlags
	fs.Var(&specs, "fd", "functional dependency \"X -> Y\" (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *attrs == "" {
		return errors.New("-attrs is required")
	}
	sc, err := fdrepair.NewSchema("R", strings.Split(*attrs, ",")...)
	if err != nil {
		return err
	}
	ds, err := parseFDs(sc, specs)
	if err != nil {
		return err
	}
	info := fdrepair.Classify(ds)
	fmt.Fprintf(stdout, "FD set: %v\n", ds)
	fmt.Fprintf(stdout, "simplification: %s\n", fdrepair.ExplainTrace(info))
	if info.SRepairPolyTime {
		fmt.Fprintln(stdout, "optimal S-repair: polynomial time (OptSRepair succeeds; Theorem 3.4)")
		fmt.Fprintln(stdout, "most probable database: polynomial time (Theorem 3.10)")
	} else {
		fmt.Fprintf(stdout, "optimal S-repair: APX-complete (%s)\n", info.HardClass)
		fmt.Fprintln(stdout, "most probable database: NP-hard (Theorem 3.10)")
		fmt.Fprintln(stdout, "fallback: 2-approximation available (Proposition 3.3)")
	}
	if info.URepairExact {
		fmt.Fprintln(stdout, "optimal U-repair: polynomial time (Section 4 cases)")
	} else {
		fmt.Fprintln(stdout, "optimal U-repair: not known tractable; combined approximation of Section 4.4 applies")
	}
	return nil
}

// cmdRepair runs one algorithm over one CSV file through the algorithm
// table: srepair (the S-repair algorithms, chosen by -mode), urepair
// and mpd.
func cmdRepair(name string, rc repairCmd, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet(name, stderr)
	load := inputFlags(fs, rc.inUsage)
	out := fs.String("out", "", "output CSV (default: print)")
	mode := rc.algos[0].Alias()
	if len(rc.algos) > 1 {
		fs.StringVar(&mode, "mode", mode, modes(rc.algos))
	}
	diff := false
	if rc.diff {
		fs.BoolVar(&diff, "diff", false, "print a change summary instead of the table")
	}
	newSolver := solverFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	algo, err := fdrepair.ParseAlgorithm(mode)
	if err != nil {
		return err
	}
	if !slices.Contains(rc.algos, algo) {
		return fmt.Errorf("%s -mode takes %s, not %s", name, modes(rc.algos), mode)
	}
	t, ds, err := load()
	if err != nil {
		return err
	}
	sv, cancel, report := newSolver(stderr)
	defer cancel()
	res := sv.Solve(fdrepair.Request{FDs: ds, Table: t, Algorithm: algo})
	if res.Err != nil {
		return res.Err
	}
	rc.summary(stderr, res, t)
	report()
	if diff {
		return writeDiff(t, res.Table, stdout)
	}
	return writeOut(res.Table, *out, stdout)
}

// cmdVerify runs an optimal S-repair through a resident session with
// impact recording and prints the before/after report the session's
// dirty-set machinery collects: violation counts per FD and cells
// changed per block.
func cmdVerify(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("verify", stderr)
	load := inputFlags(fs, "input CSV")
	out := fs.String("out", "", "also write the repaired table to this CSV")
	newSolver := solverFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, ds, err := load()
	if err != nil {
		return err
	}
	sv, cancel, report := newSolver(stderr)
	defer cancel()
	sess, err := fdrepair.NewSession(sv, ds, t, fdrepair.WithImpactRecording())
	if err != nil {
		return err
	}
	rep, cost, err := sess.Repair()
	if err != nil {
		return err
	}
	report()
	im := sess.LastImpact()
	st := sess.Stats()
	fmt.Fprintf(stdout, "impact: %d rows, %d blocks (%d solved, %d reused), deleted weight (dist_sub) %g\n",
		st.Rows, st.Blocks, st.BlocksSolved, st.BlocksReused, cost)
	fmt.Fprintf(stdout, "%-40s %8s %8s\n", "FD", "before", "after")
	for _, v := range im.Violations {
		fmt.Fprintf(stdout, "%-40s %8d %8d\n", v.FD, v.Before, v.After)
	}
	changed, cells := 0, 0
	for _, b := range im.Blocks {
		if b.CellsChanged > 0 {
			changed++
			cells += b.CellsChanged
		}
	}
	if changed > 0 {
		fmt.Fprintf(stdout, "%-10s %6s %6s %14s %7s\n", "block@row", "rows", "kept", "cells-changed", "reused")
		for _, b := range im.Blocks {
			if b.CellsChanged == 0 {
				continue
			}
			reused := "no"
			if b.Reused {
				reused = "yes"
			}
			fmt.Fprintf(stdout, "%-10d %6d %6d %14d %7s\n", b.FirstRow, b.Rows, b.Kept, b.CellsChanged, reused)
		}
	}
	fmt.Fprintf(stdout, "total: %d of %d blocks changed, %d cells changed, kept %d of %d tuples\n",
		changed, st.Blocks, cells, rep.Len(), t.Len())
	if *out != "" {
		return writeOut(rep, *out, stdout)
	}
	return nil
}

// cmdBatch repairs many CSV files as one batch on a single Solver:
// the requests share the worker budget, scheduler and scratch arenas,
// while each keeps its own solve scope (its own -timeout deadline, its
// own error). One failed or timed-out file is reported and exits
// non-zero, but never stops the others.
func cmdBatch(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("batch", stderr)
	var ins fdFlags
	fs.Var(&ins, "in", "input CSV (repeatable; one request per file)")
	outdir := fs.String("outdir", "", "write each repaired table to this directory under its input's base name (default: print)")
	mode := fs.String("mode", "auto", modes(fdrepair.Algorithms()))
	workers := fs.Int("workers", 1, "worker budget shared by the whole batch (1 = serial)")
	timeout := fs.Duration("timeout", 0, "per-request deadline; a slow file times out alone (0 = none)")
	stats := fs.Bool("stats", false, "print per-request solve counters to stderr")
	var specs fdFlags
	fs.Var(&specs, "fd", "functional dependency (repeatable; parsed against each file's header)")
	var cfdSpecs, dcSpecs, whereSpecs, preferSpecs fdFlags
	fs.Var(&cfdSpecs, "cfd", `conditional FD "X -> A | p1,p2 -> pA" (repeatable; -mode cfd)`)
	fs.Var(&dcSpecs, "dc", `denial constraint such as "t1.rank < t2.rank & t1.salary > t2.salary" (repeatable; -mode denial)`)
	project := fs.String("project", "", "comma-separated projection attributes (-mode cqa)")
	fs.Var(&whereSpecs, "where", `equality filter "attr=value" (repeatable; -mode cqa)`)
	fs.Var(&preferSpecs, "prefer", `tuple priority "id>id" (repeatable; -mode priority)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(ins) == 0 {
		return errors.New("at least one -in is required")
	}
	algo, err := fdrepair.ParseAlgorithm(*mode)
	if err != nil {
		return err
	}
	params := map[string][]string{
		"fd": specs, "cfd": cfdSpecs, "dc": dcSpecs,
		"project": {*project}, "where": whereSpecs, "prefer": preferSpecs,
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
		// Outputs are keyed by input base name; two inputs sharing one
		// would silently clobber each other in -outdir.
		seen := make(map[string]string, len(ins))
		for _, path := range ins {
			base := filepath.Base(path)
			if prev, dup := seen[base]; dup {
				return fmt.Errorf("-outdir would write %s for both %s and %s; rename an input", base, prev, path)
			}
			seen[base] = path
		}
	}
	reqs := make([]fdrepair.Request, 0, len(ins))
	for _, path := range ins {
		t, err := loadTable(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		req, err := fdrepair.ParseRequest(t, algo, params)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		reqs = append(reqs, req)
	}
	opts := []fdrepair.SolverOption{fdrepair.WithParallelism(*workers)}
	if *stats {
		opts = append(opts, fdrepair.WithStats())
	}
	sv := fdrepair.NewSolver(opts...)
	var bopts []fdrepair.BatchOption
	if *timeout > 0 {
		bopts = append(bopts, fdrepair.WithRequestTimeout(*timeout))
	}
	results := sv.SolveBatch(reqs, bopts...)
	var firstErr error
	for _, res := range results {
		name := ins[res.Index]
		if res.Err != nil {
			fmt.Fprintf(stderr, "%s: error: %v\n", name, res.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, res.Err)
			}
			continue
		}
		if res.Degraded {
			fmt.Fprintf(stderr, "%s: %s\n", name, apxNote)
		}
		in := reqs[res.Index].Table
		switch {
		case res.URepair != nil:
			fmt.Fprintf(stderr, "%s: dist_upd=%g; %s; method: %s\n", name, res.Cost, urepairStatus(res.URepair), res.URepair.Method)
		case res.CQA != nil:
			fmt.Fprintf(stderr, "%s: %d certain / %d possible answers across %d subset repairs\n",
				name, len(res.CQA.Certain), len(res.CQA.Possible), res.CQA.Repairs)
		case algo == fdrepair.AlgoMostProbable:
			fmt.Fprintf(stderr, "%s: most probable database keeps %d of %d tuples, probability %.6g\n",
				name, res.Table.Len(), in.Len(), res.Cost)
		case res.CFD != nil:
			fmt.Fprintf(stderr, "%s: dist_sub=%g (forced deletions: %d, weight %g); kept %d of %d tuples\n",
				name, res.Cost, len(res.CFD.Forced), res.CFD.ForcedCost, res.Table.Len(), in.Len())
		default:
			fmt.Fprintf(stderr, "%s: dist_sub=%g; kept %d of %d tuples\n",
				name, res.Cost, res.Table.Len(), in.Len())
		}
		if *stats {
			fmt.Fprintf(stderr, "%s: %s\n", name, statsLine(res.Stats))
		}
		if res.CQA != nil {
			// CQA produces answer sets, not a repaired table: the certain
			// answers print as projected CSV rows.
			fmt.Fprintf(stdout, "== %s ==\n", name)
			fmt.Fprintln(stdout, strings.Join(reqs[res.Index].Query.Columns(), ","))
			for _, tup := range res.CQA.Certain {
				fmt.Fprintln(stdout, strings.Join(tup, ","))
			}
			continue
		}
		if *outdir != "" {
			if err := writeOut(res.Table, filepath.Join(*outdir, filepath.Base(name)), stdout); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(stdout, "== %s ==\n", name)
		if err := writeOut(res.Table, "", stdout); err != nil {
			return err
		}
	}
	return firstErr
}

func cmdCount(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("count", stderr)
	load := inputFlags(fs, "input CSV")
	list := fs.Int("list", 0, "also print up to N repairs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, ds, err := load()
	if err != nil {
		return err
	}
	c, err := fdrepair.CountSRepairs(ds, t)
	if err != nil {
		return err
	}
	chain := "chain FD set: polynomial counting"
	if !ds.Canonical().IsChain() {
		chain = "non-chain FD set: counted by bounded enumeration (#P-complete in general)"
	}
	fmt.Fprintf(stdout, "subset repairs: %v (%s)\n", c, chain)
	if *list > 0 {
		reps, _, err := fdrepair.SubsetRepairs(ds, t, *list)
		if err != nil {
			return err
		}
		for _, r := range reps {
			fmt.Fprintf(stdout, "  keep %v (deleted weight %g)\n", r.IDs(), fdrepair.DistSub(r, t))
		}
	}
	return nil
}

func cmdDemo(stdout io.Writer) error {
	_, ds, t := workload.Office()
	fmt.Fprintln(stdout, "Running example (Figure 1): table T over Office(facility, room, floor, city)")
	fmt.Fprint(stdout, t.String())
	info := fdrepair.Classify(ds)
	fmt.Fprintf(stdout, "\nFD set: %v\nsimplification: %s\n\n", ds, fdrepair.ExplainTrace(info))
	s, cost, err := fdrepair.OptimalSRepair(ds, t)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "optimal S-repair (dist_sub = %g):\n%s\n", cost, s.String())
	res, err := fdrepair.OptimalURepair(ds, t)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "optimal U-repair (dist_upd = %g, method %s):\n%s", res.Cost, res.Method, res.Update.String())
	return nil
}

// cmdEntails checks Δ ⊧ X → Y and prints an Armstrong-style derivation
// when it holds.
func cmdEntails(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("entails", stderr)
	attrs := fs.String("attrs", "", "comma-separated attribute list")
	check := fs.String("check", "", "the FD to prove, e.g. \"A -> C\"")
	var specs fdFlags
	fs.Var(&specs, "fd", "functional dependency (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *attrs == "" || *check == "" {
		return errors.New("-attrs and -check are required")
	}
	sc, err := fdrepair.NewSchema("R", strings.Split(*attrs, ",")...)
	if err != nil {
		return err
	}
	ds, err := parseFDs(sc, specs)
	if err != nil {
		return err
	}
	target, err := fd.Parse(sc, *check)
	if err != nil {
		return err
	}
	steps, ok := ds.Explain(target)
	if !ok {
		fmt.Fprintf(stdout, "%s is NOT entailed by %v\n", ds.FDString(target), ds)
		return nil
	}
	fmt.Fprint(stdout, ds.RenderDerivation(target, steps))
	return nil
}
