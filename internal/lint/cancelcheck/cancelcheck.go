// Package cancelcheck enforces cooperative-cancellation polling in the
// solve recursion: a deadline-exceeded or cancelled request must stop
// burning CPU at the next loop boundary, which only happens if loops
// over rows, blocks, components and augmenting phases actually poll
// Ctx.Err (the sparse matcher polls every 32 phases; block fan-outs
// poll per dispatch inside ForEachBlock).
//
// Two loop shapes are flagged in solve-path packages:
//
//   - a loop that hands its *solve.Ctx to same-package work per
//     iteration without the loop (or that callee, transitively) ever
//     polling Err. Calls into other solve-path packages are assumed to
//     poll — each package is analyzed under its own cancelcheck — and
//     Ctx.ForEachBlock polls at every dispatch by construction;
//   - a deeply nested (≥3 levels) pure-computation loop in a function
//     with a Ctx in scope that never polls: the JV-convention shape,
//     where the outermost phase loop must carry the check.
package cancelcheck

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "cancelcheck",
	Doc:  "solve-path loops dispatching per-iteration work must poll Ctx.Err",
	Run:  run,
}

// cheapCtxMethods neither do per-iteration work nor poll: handing the
// Ctx to them does not make a loop heavy.
var cheapCtxMethods = map[string]bool{
	"Workers": true, "Stats": true, "Base": true, "Scoped": true,
	"GetScratch": true, "PutScratch": true,
	"Int32s": true, "PutInt32s": true, "Int32Slices": true, "PutInt32Slices": true,
	"Float64s": true, "PutFloat64s": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.OnSolvePath(pass) {
		return nil, nil
	}

	decls := funcDecls(pass)
	pollers := localPollers(pass, decls)

	for fn, decl := range decls {
		hasCtx := lintutil.CtxParam(fn) != nil || usesCtx(pass, decl.Body)
		checkBody(pass, decl.Body, pollers, hasCtx)
	}
	return nil, nil
}

func funcDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
					decls[fn] = decl
				}
			}
		}
	}
	return decls
}

// localPollers computes, to a fixed point, the same-package functions
// that poll cancellation: their body calls Ctx.Err or Ctx.ForEachBlock
// (which polls per dispatch), or calls another local poller.
func localPollers(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]bool {
	pollers := make(map[*types.Func]bool)
	for fn, decl := range decls {
		if containsDirectPoll(pass, decl.Body) {
			pollers[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, decl := range decls {
			if pollers[fn] {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if pollers[fn] {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func); ok && pollers[callee] {
					pollers[fn] = true
					changed = true
					return false
				}
				return true
			})
		}
	}
	return pollers
}

// containsDirectPoll reports whether the subtree calls Err or
// ForEachBlock on a *solve.Ctx.
func containsDirectPoll(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Err" || sel.Sel.Name == "ForEachBlock" {
				if t := pass.TypesInfo.TypeOf(sel.X); t != nil && lintutil.IsCtxPtr(t) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, pollers map[*types.Func]bool, hasCtx bool) {
	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch l := m.(type) {
			case *ast.FuncLit:
				if m != n {
					// Fresh loop-depth scope for closures; a captured ctx
					// keeps the JV-shape check armed.
					checkBody(pass, l.Body, pollers, hasCtx || usesCtx(pass, l.Body))
					return false
				}
			case *ast.ForStmt:
				if m != n {
					checkLoop(pass, l, l.Body, loopDepth, hasCtx, pollers)
					walk(l.Body, loopDepth+1)
					return false
				}
			case *ast.RangeStmt:
				if m != n {
					checkLoop(pass, l, l.Body, loopDepth, hasCtx, pollers)
					walk(l.Body, loopDepth+1)
					return false
				}
			}
			return true
		})
	}
	walk(body, 0)
}

func checkLoop(pass *analysis.Pass, loop ast.Stmt, body *ast.BlockStmt, depth int, hasCtx bool, pollers map[*types.Func]bool) {
	if containsDirectPoll(pass, body) {
		return
	}
	// Heavy same-package dispatch without a poll anywhere beneath.
	if callee := heavyCall(pass, body, pollers); callee != "" {
		pass.Reportf(loop.Pos(),
			"loop dispatches ctx-threaded work (%s) every iteration but never polls Ctx.Err: a cancelled or deadline-exceeded solve keeps burning CPU here",
			callee)
		return
	}
	// The JV shape: outermost pure-computation loop nesting ≥3 deep in
	// a ctx-bearing function. Only the outermost loop is reported — the
	// convention puts the poll on the phase loop, not the scan loops —
	// and only when no ctx-threaded call owns the work (those are
	// attributed to their innermost loop above).
	if depth == 0 && hasCtx && nestingDepth(body) >= 2 && !containsCtxCall(pass, body) {
		pass.Reportf(loop.Pos(),
			"deeply nested solve loop never polls Ctx.Err: add the every-32-iterations cancellation check to the outermost phase loop")
	}
}

// heavyCall returns the name of a call in the loop body that hands a
// *solve.Ctx to a non-cheap, non-polling same-package function, or "".
// Cross-package Ctx calls are assumed to poll internally (their own
// package's cancelcheck enforces it); deferred calls run after the
// loop, not per iteration.
func heavyCall(pass *analysis.Pass, body *ast.BlockStmt, pollers map[*types.Func]bool) string {
	heavy := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if heavy != "" {
			return false
		}
		switch n.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			// Heavy calls inside a nested loop are attributed to that
			// loop, keeping one finding per construct.
			if n != ast.Node(body) {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok {
			return true
		}
		takesCtx := false
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if t := pass.TypesInfo.TypeOf(sel.X); t != nil && lintutil.IsCtxPtr(t) {
				if cheapCtxMethods[callee.Name()] || callee.Name() == "Err" || callee.Name() == "ForEachBlock" {
					return true
				}
				takesCtx = true
			}
		}
		for _, arg := range call.Args {
			if t := pass.TypesInfo.TypeOf(arg); t != nil && lintutil.IsCtxPtr(t) {
				takesCtx = true
			}
		}
		if !takesCtx {
			return true
		}
		if callee.Pkg() != pass.Pkg { // other package: its cancelcheck covers it
			return true
		}
		if pollers[callee] || cheapCtxMethods[callee.Name()] {
			return true
		}
		heavy = callee.Name()
		return false
	})
	return heavy
}

// containsCtxCall reports whether the subtree contains any call that
// receives a *solve.Ctx (as receiver or argument) — i.e. the loop's
// work is ctx-threaded rather than pure computation.
func containsCtxCall(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if t := pass.TypesInfo.TypeOf(sel.X); t != nil && lintutil.IsCtxPtr(t) {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			if t := pass.TypesInfo.TypeOf(arg); t != nil && lintutil.IsCtxPtr(t) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// usesCtx reports whether any expression in the body has type
// *solve.Ctx (a param, field or local — the function could poll).
func usesCtx(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if t := pass.TypesInfo.TypeOf(e); t != nil && lintutil.IsCtxPtr(t) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// nestingDepth returns the maximum loop nesting depth inside body
// (a body directly containing a loop has depth ≥1).
func nestingDepth(body *ast.BlockStmt) int {
	max := 0
	var walk func(n ast.Node, d int)
	walk = func(n ast.Node, d int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch l := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				if m != n {
					if d+1 > max {
						max = d + 1
					}
					walk(l.Body, d+1)
					return false
				}
			case *ast.RangeStmt:
				if m != n {
					if d+1 > max {
						max = d + 1
					}
					walk(l.Body, d+1)
					return false
				}
			}
			return true
		})
	}
	walk(body, 0)
	return max
}
