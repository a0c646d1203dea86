// Package lintutil holds the shared vocabulary of the fdlint
// analyzers: which packages form the solve path (where determinism and
// cancellation invariants apply), and type predicates for the
// solve.Ctx type the invariants revolve around.
package lintutil

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// SolvePkg is the import path of the package owning Ctx.
const SolvePkg = "repro/internal/solve"

// solvePath lists the packages whose code executes inside a solve —
// where results must be byte-identical across worker counts and runs,
// so wall clocks, unseeded randomness and map-iteration order are
// forbidden and loops must poll cancellation. The experiment/workload
// generators, the CLI and the daemons are deliberately absent: they
// sit outside the optimality contract.
var solvePath = map[string]bool{
	"repro/internal/solve":     true,
	"repro/internal/srepair":   true,
	"repro/internal/urepair":   true,
	"repro/internal/graph":     true,
	"repro/internal/table":     true,
	"repro/internal/mpd":       true,
	"repro/internal/fd":        true,
	"repro/internal/schema":    true,
	"repro/internal/reduction": true,
	"repro/internal/enumerate": true,
	"repro/internal/cfd":       true,
	"repro/internal/denial":    true,
	"repro/internal/cqa":       true,
	"repro/internal/priority":  true,
	"repro/fdrepair":           true,
}

// OnSolvePath reports whether the pass's package carries the solve-path
// determinism and cancellation invariants.
func OnSolvePath(pass *analysis.Pass) bool {
	return solvePath[pass.Pkg.Path()]
}

// IsCtxPtr reports whether t is *solve.Ctx.
func IsCtxPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	return isNamed(p.Elem(), SolvePkg, "Ctx")
}

func isNamed(t types.Type, pkg, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name
}

// CtxParam returns the *types.Var of fn's first *solve.Ctx parameter
// (receiver included for methods), or nil.
func CtxParam(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if r := sig.Recv(); r != nil && IsCtxPtr(r.Type()) {
		return r
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); IsCtxPtr(p.Type()) {
			return p
		}
	}
	return nil
}

// ObjOf resolves an expression to the object of its identifier, seeing
// through parens. Returns nil for anything richer than an identifier.
func ObjOf(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}
