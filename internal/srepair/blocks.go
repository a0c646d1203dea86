package srepair

// Block-level entry points into OptSRepair for resident sessions
// (fdrepair.Session). The simplification chain is data-independent, so
// the first step's block partition is a pure function of the table: the
// projection onto TopStepAttrs splits the rows into blocks that are
// solved independently and then combined by that step's rule. A session
// exploits this to localize mutations — after an append or cell update
// only blocks containing touched rows can change, so it re-runs
// SolveBlock for exactly those and calls Combine over a mix of cached
// and fresh block repairs. Both are the recursion's own pieces, so the
// result is byte-identical to OptSRepairCtx: SolveBlock is the depth-1
// recursion the root fan-out performs per group, and Combine runs the
// root node's combine, the same function every recursion node calls.

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/graph"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/table"
)

// MatchMemo caches marriage-matching results per connected component
// across solves; see graph.MatchMemo. A resident session owns one so
// that the root combine's matching re-runs only the components whose
// block weights actually changed.
type MatchMemo = graph.MatchMemo

// NewMatchMemo returns an empty component cache for Combine.
func NewMatchMemo() *MatchMemo { return graph.NewMatchMemo() }

// BlockSolver holds the simplification chain of one FD set, computed
// once, so a session solving thousands of small blocks per repair does
// not re-derive the (data-independent) chain per block.
type BlockSolver struct {
	steps []fd.Simplification

	// unionBuf backs Combine's result row set, recycled across calls —
	// a session combines once per Repair, and an O(rows) allocation per
	// round was measurable GC pressure. Combine's result is therefore
	// only valid until the next Combine on the same BlockSolver.
	unionBuf []int32
}

// NewBlockSolver computes the chain. ok is false when the FD set does
// not simplify to a trivial set — the APX-hard side of the dichotomy —
// in which case block-level solving is unavailable.
func NewBlockSolver(ds *fd.Set) (*BlockSolver, bool) {
	steps, success := Trace(ds)
	if !success {
		return nil, false
	}
	return &BlockSolver{steps: steps}, true
}

// TopStepAttrs returns the attribute set whose projection partitions
// the table into the independent blocks of the first simplification
// step: the attributes that step removes. ok is false when the chain is
// empty (a trivial set repairs to the table itself — there is no block
// structure).
func (bs *BlockSolver) TopStepAttrs() (schema.AttrSet, bool) {
	if len(bs.steps) == 0 {
		return 0, false
	}
	return bs.steps[0].Removed, true
}

// SolveBlock computes the optimal S-repair row set of one top-level
// block: rows must all share their projection onto TopStepAttrs (one
// bucket of table.RowGroups), ascending. It runs the same depth-1
// recursion the root fan-out of OptSRepairCtx performs per group, on
// the same context (arena scratch, cancellation, stats), so the
// returned row indices are byte-identical to what a cold solve computes
// for that block. The result is freshly allocated except when the
// block bottoms out immediately, in which case it aliases rows.
func (bs *BlockSolver) SolveBlock(c *solve.Ctx, t *table.Table, rows []int32) ([]int32, error) {
	sv := solver{steps: bs.steps, c: c}
	return sv.solve(table.ViewOfRows(t, rows), 1)
}

// BlockWeight returns the total weight of a block repair, summing in
// row order — the same float additions, in the same order, as the
// root's TotalWeight over a subview, so cached weights splice into
// Combine bit-identically.
func BlockWeight(t *table.Table, rep []int32) float64 {
	rows := t.Rows()
	var sum float64
	for _, ri := range rep {
		sum += rows[ri].Weight
	}
	return sum
}

// Combine runs the root combine of OptSRepairCtx over precomputed
// block repairs: groups is the canonical block partition
// (table.RowGroups over TopStepAttrs), reps[i] the optimal repair of
// groups[i] (SolveBlock output, ascending), weights[i] its BlockWeight.
// It calls the combine every recursion node calls, so the returned row
// set is byte-identical to a from-scratch solve's. memo, when non-nil,
// caches matching components across calls (nil is always correct, just
// slower). The returned slice is owned by the BlockSolver and valid
// only until its next Combine call.
func (bs *BlockSolver) Combine(c *solve.Ctx, t *table.Table, groups, reps [][]int32, weights []float64, memo *MatchMemo) ([]int32, error) {
	if len(bs.steps) == 0 {
		return nil, fmt.Errorf("srepair: trivial FD set has no block structure")
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return combine(c, bs.steps[0], t, t.Len(), groups, reps, weights, memo, &bs.unionBuf)
}
