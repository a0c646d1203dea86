// Package lint assembles the fdlint analyzer suite: go/analysis
// analyzers encoding the repair engine's hand-maintained invariants —
// arena Get/Put pairing, solve-path determinism and cancellation
// polling — so the optimality contract (repairs byte-identical to the
// seed implementations at workers ∈ {1,2,4,8}) is enforced
// mechanically at merge time instead of by reviewer vigilance.
//
// See fdrepair/doc.go ("Invariants and how they are enforced") for the
// mapping from each analyzer to the invariant and the PR that
// motivated it, and cmd/fdlint/README.md for the suppression policy.
package lint

import (
	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/arenapair"
	"repro/internal/lint/cancelcheck"
	"repro/internal/lint/determinism"
)

// Analyzers returns the full fdlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		arenapair.Analyzer,
		determinism.Analyzer,
		cancelcheck.Analyzer,
	}
}
