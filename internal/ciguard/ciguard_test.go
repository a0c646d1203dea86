// Package ciguard is a meta-test over .github/workflows/ci.yml: the
// solver-lifecycle and chaos jobs select their suites with
// hand-maintained `-run` regexes, the bench smokes select theirs with
// `-bench` regexes and the fuzz smokes their targets with `-fuzz`
// regexes, which can silently drift as suites are added or renamed (go
// test passes when a regex matches nothing). These tests extract the
// regexes from the workflow and cross-check them against the Test,
// Benchmark and Fuzz functions that actually exist in the covered
// packages, and against the paperbench case names in BENCH_srepair.json.
package ciguard

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// selector is one extracted `-run` or `-bench` regex together with
// the package patterns its `go test` invocation covers: "dir" for one
// package, "dir/..." for a tree ("..." alone is the whole module).
type selector struct {
	re   *regexp.Regexp
	dirs []string
}

// sentinels are invariant families that must never drop out of the CI
// regexes: each maps to a suite the optimality or robustness contract
// depends on.
var sentinels = []string{
	"Cancel", "Scope", "Sticky", "Stream", "Batch", "Steal", "Ingest", // lifecycle
	"Panic", "Failpoint", "Close", "Drain", "Shed", "Deadline", // chaos
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func workflow(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot(t), ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatalf("read workflow: %v", err)
	}
	return string(data)
}

// packagePatterns maps go test's package arguments ("./x", "./x/...",
// ".", "./...") to selector dirs, skipping every other field.
func packagePatterns(fields []string) []string {
	var dirs []string
	for _, f := range fields {
		switch {
		case f == ".":
			dirs = append(dirs, ".")
		case strings.HasPrefix(f, "./"):
			dirs = append(dirs, strings.TrimPrefix(f, "./"))
		}
	}
	return dirs
}

// runSelectors extracts every alternation-style `-run '...'` regex from
// the workflow file, paired with the package patterns of its go test
// line (none means the whole module).
func runSelectors(t *testing.T) []selector {
	t.Helper()
	lineRe := regexp.MustCompile(`-run '([^']+)'((?: \./\S+)*)`)
	var out []selector
	for _, m := range lineRe.FindAllStringSubmatch(workflow(t), -1) {
		if !strings.Contains(m[1], "|") {
			continue // single-suite selectors (DaemonE2E, ^$) are not drift-prone
		}
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("workflow -run regex %q does not compile: %v", m[1], err)
		}
		dirs := packagePatterns(strings.Fields(m[2]))
		if len(dirs) == 0 {
			dirs = []string{"..."}
		}
		out = append(out, selector{re: re, dirs: dirs})
	}
	if len(out) < 2 {
		t.Fatalf("expected the solver-lifecycle and chaos -run regexes in ci.yml, found %d alternation regexes", len(out))
	}
	return out
}

// benchSelectors extracts the `-bench` regex of every go test line of
// the workflow, paired with the packages that line runs.
func benchSelectors(t *testing.T) []selector {
	t.Helper()
	out := lineSelectors(t, regexp.MustCompile(`-bench[= ]'([^']+)'`))
	if len(out) < 2 {
		t.Fatalf("expected the bench-smoke and scheduler -bench regexes in ci.yml, found %d", len(out))
	}
	return out
}

// fuzzSelectors extracts the `-fuzz` regex of every go test line of
// the workflow, paired with the packages that line runs.
func fuzzSelectors(t *testing.T) []selector {
	t.Helper()
	out := lineSelectors(t, regexp.MustCompile(`\s-fuzz[= ]'?([^'\s]+)`))
	if len(out) == 0 {
		t.Fatal("expected the fuzz-smoke -fuzz regexes in ci.yml, found none")
	}
	return out
}

// lineSelectors extracts the regex flagRe captures on every go test
// line of the workflow, paired with the packages that line runs.
func lineSelectors(t *testing.T, flagRe *regexp.Regexp) []selector {
	t.Helper()
	var out []selector
	for _, line := range strings.Split(workflow(t), "\n") {
		m := flagRe.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") {
			continue
		}
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("workflow regex %q does not compile: %v", m[1], err)
		}
		out = append(out, selector{re: re, dirs: packagePatterns(strings.Fields(line))})
	}
	return out
}

// funcNames parses the _test.go files of the given package patterns and
// returns every top-level function name with the prefix.
func funcNames(t *testing.T, dirs []string, prefix string) []string {
	t.Helper()
	root := repoRoot(t)
	fset := token.NewFileSet()
	var names []string
	for _, pat := range dirs {
		dir, tree := strings.CutSuffix(pat, "...")
		top := filepath.Join(root, dir)
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				switch {
				case path == top:
					return nil
				case !tree, d.Name() == "testdata", d.Name() == "vendor", d.Name() == ".git":
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", dir, err)
		}
	}
	if len(names) == 0 {
		t.Fatalf("no %s functions found under %v", prefix, dirs)
	}
	return names
}

// TestSentinelFamiliesPresent fails if a load-bearing suite family is
// removed from every CI regex.
func TestSentinelFamiliesPresent(t *testing.T) {
	selectors := runSelectors(t)
	for _, fam := range sentinels {
		present := false
		for _, s := range selectors {
			for _, alt := range strings.Split(s.re.String(), "|") {
				if alt == fam {
					present = true
				}
			}
		}
		if !present {
			t.Errorf("invariant family %q is in no CI -run regex: its suites would only run in the plain test job", fam)
		}
	}
}

// TestNoDeadAlternatives fails when a regex alternative matches no
// existing test in the packages its job runs: the suite it selected was
// renamed or deleted, and the regex is silently stale.
func TestNoDeadAlternatives(t *testing.T) {
	for _, s := range runSelectors(t) {
		names := funcNames(t, s.dirs, "Test")
		for _, alt := range strings.Split(s.re.String(), "|") {
			altRe, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("alternative %q does not compile: %v", alt, err)
			}
			alive := false
			for _, n := range names {
				if altRe.MatchString(n) {
					alive = true
					break
				}
			}
			if !alive {
				t.Errorf("CI -run alternative %q matches no Test function in %v: stale after a rename?", alt, s.dirs)
			}
		}
	}
}

// TestFamilyTestsMatchRegex asserts that every Test function whose name
// contains one of a regex's family keywords is matched by that full
// regex — anchoring or escaping mistakes in the hand-edited pattern
// would silently drop suites from the race jobs.
func TestFamilyTestsMatchRegex(t *testing.T) {
	for _, s := range runSelectors(t) {
		names := funcNames(t, s.dirs, "Test")
		for _, alt := range strings.Split(s.re.String(), "|") {
			for _, n := range names {
				if strings.Contains(n, alt) && !s.re.MatchString(n) {
					t.Errorf("test %s contains family %q but does not match CI regex %q", n, alt, s.re)
				}
			}
		}
	}
}

// TestBenchSelectorsSelect fails when a workflow `-bench` regex selects
// nothing in the packages its step runs. go test splits the regex at
// each top-level "|" into alternatives and each alternative at "/" into
// one regex per level: the first level must match a Benchmark function,
// and an alternative with deeper levels must select BenchmarkCases, its
// case part matching a case name of the committed BENCH_srepair.json
// (which paperbench's TestBenchJSONSchema keeps equal to its case
// table).
func TestBenchSelectorsSelect(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCH_srepair.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snapshot []struct{ Name string }
	if err := json.Unmarshal(data, &snapshot); err != nil {
		t.Fatal(err)
	}
	for _, s := range benchSelectors(t) {
		funcs := funcNames(t, s.dirs, "Benchmark")
		for _, alt := range splitTop(s.re.String(), '|') {
			levels := splitTop(alt, '/')
			top := regexp.MustCompile(levels[0])
			switch {
			case !slices.ContainsFunc(funcs, top.MatchString):
				t.Errorf("CI -bench alternative %q matches no Benchmark function in %v: the step runs nothing", alt, s.dirs)
			case len(levels) == 1:
			case !top.MatchString("BenchmarkCases"):
				t.Errorf("CI -bench alternative %q selects sub-benchmarks outside BenchmarkCases, whose names nothing records", alt)
			case !slices.ContainsFunc(snapshot, func(c struct{ Name string }) bool { return selects(levels[1:], c.Name) }):
				t.Errorf("CI -bench alternative %q: case part %q matches no case in BENCH_srepair.json", alt, strings.Join(levels[1:], "/"))
			}
		}
	}
}

// TestFuzzSelectorsSelect fails when a workflow `-fuzz` regex does not
// select exactly one Fuzz function in the one package its step runs:
// go test -fuzz refuses a regex matching several, and one matching none
// prints a warning and passes, so a renamed target would silently drop
// out of CI.
func TestFuzzSelectorsSelect(t *testing.T) {
	for _, s := range fuzzSelectors(t) {
		if len(s.dirs) != 1 || strings.HasSuffix(s.dirs[0], "...") {
			t.Errorf("CI -fuzz %q runs on %v: go test fuzzes one package", s.re, s.dirs)
			continue
		}
		var matched []string
		for _, n := range funcNames(t, s.dirs, "Fuzz") {
			if s.re.MatchString(n) {
				matched = append(matched, n)
			}
		}
		if len(matched) != 1 {
			t.Errorf("CI -fuzz %q matches %d Fuzz functions in %s %v, want exactly one", s.re, len(matched), s.dirs[0], matched)
		}
	}
}

// splitTop splits expr at each sep outside brackets and parentheses,
// the way go test splits a -run or -bench expression.
func splitTop(expr string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(expr); i++ {
		switch expr[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, expr[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, expr[start:])
}

// selects reports whether the per-level regexes match the leading
// elements of a "/"-separated case name, as go test -bench matches
// sub-benchmarks.
func selects(levels []string, name string) bool {
	elems := strings.Split(name, "/")
	if len(levels) > len(elems) {
		return false
	}
	for i, l := range levels {
		if !regexp.MustCompile(l).MatchString(elems[i]) {
			return false
		}
	}
	return true
}
