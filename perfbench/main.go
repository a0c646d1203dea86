// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against a public surface of the repair engine —
// the fdrepaird daemon, the fdrepair library, or a resident
// fdrepair.Session — in a closed loop, checks every output against a
// reference computed in set-up by a serial in-process Solver, and
// prints its metrics as one JSON object on the last line of standard
// output. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload library-large --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	seed   int64
	daemon string // fdrepaird binary (serve-mixed)
	outDir string // trace files and daemon logs
	sz     sizes

	// tamper, when set, may rewrite an op's output before the
	// correctness gate sees it; the self-test uses it to prove a
	// corrupted output is counted as a failure.
	tamper func(out []byte) []byte
}

// sizes fixes every input size; fullSizes is the benchmark, the
// self-test shrinks it.
type sizes struct {
	libraryRows int // rows per library-large table
	sessionRows int // rows per session-updates table
	sessionOps  int // ops per session lifetime before it is rebuilt
	sessionLife int // distinct lifetimes (mutation sequences) per table shape
	serveMin    int // smallest serve-mixed body, rows
	serveMax    int // largest serve-mixed body, rows
	serveExact  int // largest algo=exact body, rows (exact cover caps at 512 vertices)
	serveGrid   int // bodies per request kind, log-spaced from serveMin to serveMax
	setups      int // set-ups per untraced run; setup_s is their median
}

var fullSizes = sizes{
	libraryRows: 1_024_000,
	sessionRows: 102_400,
	sessionOps:  8,
	sessionLife: 4,
	serveMin:    100,
	serveMax:    6400,
	serveExact:  400,
	serveGrid:   8,
	setups:      3,
}

// opSample is one completed op: its kind (a workload rotates through a
// fixed list of kinds), latency, and whether its output was correct.
type opSample struct {
	kind  int
	lat   time.Duration
	ok    bool
	rssMB float64 // peak RSS sampled during the op (single-caller workloads)
}

// loopResult is what one closed loop measured.
type loopResult struct {
	ops   []opSample
	kinds int // number of op kinds; latency percentiles are averaged over kinds

	// busy is the time the loop spent in ops: the wall-clock window for
	// concurrent clients, the sum of op latencies for a single caller
	// (whose checks and session rebuilds run between ops).
	busy time.Duration
	// cpu and alloc are the CPU time and heap bytes the process doing
	// the repair spent on the ops; cyclePeaks are its peak RSS per cycle
	// of ops, for workloads whose ops overlap.
	cpu        time.Duration
	alloc      float64
	cyclePeaks []float64

	// raw are the loop's counter deltas as the program publishes them
	// (Solver.Stats, Session.Stats, fdrepaird /metrics). Loops end on a
	// cycle boundary, so worker-independent counts repeat exactly for a
	// seed.
	raw map[string]int64
}

func (lr *loopResult) failed() int {
	n := 0
	for _, o := range lr.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

func (lr *loopResult) opsPerS() float64 {
	return float64(len(lr.ops)) / lr.busy.Seconds()
}

// latencyMS is the mean over op kinds of each kind's p-quantile latency.
func (lr *loopResult) latencyMS(p float64) float64 {
	return lr.perKind(p, func(o opSample) float64 { return float64(o.lat) / 1e6 })
}

// peakRSS is the median per-cycle peak RSS when ops overlap, else the
// mean over op kinds of each kind's median per-op peak RSS.
func (lr *loopResult) peakRSS() float64 {
	if len(lr.cyclePeaks) > 0 {
		return quantile(lr.cyclePeaks, 0.5)
	}
	return lr.perKind(0.5, func(o opSample) float64 { return o.rssMB })
}

// perKind is the mean over op kinds of each kind's p-quantile of f, so
// a loop alternating between fixed kinds never reports a quantile that
// falls in the gap between two kinds.
func (lr *loopResult) perKind(p float64, f func(opSample) float64) float64 {
	byKind := make([][]float64, lr.kinds)
	for _, o := range lr.ops {
		byKind[o.kind] = append(byKind[o.kind], f(o))
	}
	sum, n := 0.0, 0
	for _, xs := range byKind {
		if len(xs) > 0 {
			sum += quantile(xs, p)
			n++
		}
	}
	return sum / float64(n)
}

// quantile is the linearly interpolated p-quantile of xs.
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// instance is a workload after set-up.
type instance interface {
	// loop runs ops until d has passed and the current cycle of ops is
	// complete; tr, when non-nil, records a span around every call into
	// the program.
	loop(d time.Duration, tr *tracer) (*loopResult, error)
	// env reports the worker budget the program actually ran with.
	env() map[string]any
	// close stops everything the instance started and waits for it.
	close() error
}

var workloads = map[string]func(config) (instance, error){
	"serve-mixed":     setupServe,
	"library-large":   setupLibrary,
	"session-updates": setupSession,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "serve-mixed | library-large | session-updates")
	seed := fset.Int64("seed", 1, "input seed")
	seconds := fset.Float64("seconds", 10, "measured seconds")
	traced := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	daemon := fset.String("daemon", "", "fdrepaird binary (serve-mixed)")
	outDir := fset.String("out", ".bench_build", "directory for traces and daemon logs")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{seed: *seed, daemon: *daemon, outDir: *outDir, sz: fullSizes}
	dur := time.Duration(*seconds * float64(time.Second))
	res, env, raw, err := measure(*name, cfg, dur, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, line := range []map[string]any{{"env": env}, {"counters": raw}} {
		b, _ := json.Marshal(line)
		fmt.Fprintln(stdout, string(b))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// measure runs one workload. Untraced: set up cfg.sz.setups times
// (setup_s is the median), then one closed loop for dur. Traced: set up
// once, run an untraced loop and then a traced loop for dur/2 each, and
// report per-layer metrics plus the tracing overhead between the two.
func measure(name string, cfg config, dur time.Duration, traced bool, stderr io.Writer) (*result, map[string]any, map[string]int64, error) {
	setup := workloads[name]
	n := cfg.sz.setups
	if traced {
		n = 1
	}
	var inst instance
	var setupTimes []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, nil, err
			}
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(cfg); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	runtime.GC()
	lr, tr, un, err := loops(inst, dur, traced)
	env := environment(name, cfg, dur, traced, inst.env())
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, nil, err
	}
	lr.raw["ops"] = int64(len(lr.ops))
	res := &result{Attempted: len(lr.ops), Failed: lr.failed()}
	if traced {
		res.Attempted += len(un.ops)
		res.Failed += un.failed()
		res.Metrics = perLayer(name, lr, tr, un.opsPerS(), stderr)
		path := filepath.Join(cfg.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, nil, nil, fmt.Errorf("writing trace: %w", err)
		}
		env["trace_file"] = path
	} else {
		res.Metrics = endToEnd(lr, quantile(setupTimes, 0.5))
	}
	res.Correct = res.Failed == 0
	return res, env, lr.raw, nil
}

func loops(inst instance, dur time.Duration, traced bool) (lr *loopResult, tr *tracer, un *loopResult, err error) {
	if !traced {
		lr, err = inst.loop(dur, nil)
		return lr, nil, nil, err
	}
	if un, err = inst.loop(dur/2, nil); err != nil {
		return nil, nil, nil, err
	}
	runtime.GC()
	tr = newTracer()
	lr, err = inst.loop(dur/2, tr)
	return lr, tr, un, err
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(lr *loopResult, setupS float64) map[string]metric {
	ops := float64(len(lr.ops))
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {lr.opsPerS(), "1/s"},
		"latency_p50_ms":  {lr.latencyMS(0.5), "ms"},
		"latency_p90_ms":  {lr.latencyMS(0.9), "ms"},
		"ok_ratio":        {(ops - float64(lr.failed())) / ops, "ratio"},
		"cpu_ms_per_op":   {float64(lr.cpu) / 1e6 / ops, "ms"},
		"peak_rss_mb":     {lr.peakRSS(), "MB"},
		"alloc_mb_per_op": {lr.alloc / ops / (1 << 20), "MB"},
	}
}

// environment is the record printed with every result.
func environment(name string, cfg config, dur time.Duration, traced bool, inst map[string]any) map[string]any {
	env := map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    dur.Seconds(),
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
	for k, v := range inst {
		env[k] = v
	}
	return env
}

// commit is the checkout's git commit, or "unknown" outside a git
// checkout (sourceDigest still identifies the code).
func commit() string {
	out, err := exec.Command("git", "-C", repoRoot(), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest is a SHA-256 over the repository's Go sources and
// go.mod files (paths and contents, in path order), so a result
// identifies the code it measured even outside a git checkout.
func sourceDigest() string {
	root := repoRoot()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// repoRoot is the checkout holding this module: the parent of the
// benchmark's directory when run from the repository root or from the
// benchmark's own directory.
func repoRoot() string {
	if _, err := os.Stat("perfbench/go.mod"); err == nil {
		return "."
	}
	return ".."
}
