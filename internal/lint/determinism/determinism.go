// Package determinism guards the optimality contract's reproducibility
// half: a repair must be byte-identical across runs and across worker
// counts ∈ {1,2,4,8}, so solve-path code (lintutil's solve-path
// package list) must not consult sources of run-to-run variation:
//
//   - wall clocks: time.Now, Since, Until, After, Tick, NewTimer,
//     NewTicker, Sleep — scheduling-visible time has no place between
//     the input table and the result rows;
//   - ambient randomness: the package-level math/rand and math/rand/v2
//     functions (process-seeded; a deterministic *rand.Rand built from
//     an explicit seed is fine);
//   - map iteration order that feeds results: a `range` over a map
//     whose body appends to a slice is flagged unless that slice is
//     sorted after the loop in the same function — the work-stealing
//     scheduler makes any such order user-visible in the repair.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "determinism",
	Doc:      "forbid wall clocks, ambient randomness and unsorted map-order results in solve-path packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "Sleep": true,
	"AfterFunc": true,
}

// randConstructors build explicitly seeded generators — the blessed
// deterministic pattern — and touch no ambient state.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.OnSolvePath(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		sig := fn.Type().(*types.Signature)
		switch pkg := fn.Pkg().Path(); {
		case pkg == "time" && sig.Recv() == nil && bannedTime[fn.Name()]:
			pass.Reportf(call.Pos(),
				"time.%s in solve-path code: wall-clock values vary run to run and break byte-identical repairs (thread deadlines through Ctx instead)",
				fn.Name())
		case (pkg == "math/rand" || pkg == "math/rand/v2") && sig.Recv() == nil && !randConstructors[fn.Name()]:
			pass.Reportf(call.Pos(),
				"package-level %s.%s is seeded per process: solve-path randomness must come from an explicitly seeded *rand.Rand, or better, be removed",
				pkg, fn.Name())
		}
	})

	// Map-order checks need the enclosing function to look for sorts
	// after the loop.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			checkMapRanges(pass, body)
		}
	})
	return nil, nil
}

// checkMapRanges flags `for ... := range m { out = append(out, ...) }`
// when m is a map and out is not subsequently sorted in the same body.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested functions are scanned on their own
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		for _, out := range appendTargets(pass, rng.Body) {
			if !sortedAfter(pass, body, rng, out) {
				pass.Reportf(rng.Pos(),
					"map iteration order feeds slice %q without a subsequent sort in this function: the scheduler makes the order user-visible in results",
					out.Name())
			}
		}
		return true
	})
}

// appendTargets returns the variables appended to inside the loop body.
func appendTargets(pass *analysis.Pass, body *ast.BlockStmt) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		asn, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asn.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			if i >= len(asn.Lhs) {
				continue
			}
			v, ok := lintutil.ObjOf(pass.TypesInfo, asn.Lhs[i]).(*types.Var)
			if ok && !seen[v] {
				seen[v] = true
				out = append(out, v)
			} else if !ok {
				// appends to fields/elements: approximate by flagging
				// through a nil sentinel-free path — skip; field sinks
				// are rare and reviewed by hand.
				continue
			}
		}
		return true
	})
	return out
}

// sortedAfter reports whether v is passed to a sort-like call after
// the range statement within the enclosing body. Recognized sorts:
// anything in packages sort or slices, and local helpers whose name
// contains "sort" (e.g. srepair.sortRows). The variable may appear
// directly, wrapped in a conversion (sort.Sort(byCost(v))), or as the
// argument of a method value.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.End() <= rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortLike(pass, call) {
			return true
		}
		mentions := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					mentions = true
				}
				return !mentions
			})
		}
		if mentions {
			found = true
		}
		return !found
	})
	return found
}

func isSortLike(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
		return true
	}
	return strings.Contains(strings.ToLower(fn.Name()), "sort")
}
