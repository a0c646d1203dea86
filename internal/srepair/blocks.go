package srepair

// Block-level entry points into OptSRepair for resident sessions
// (fdrepair.Session). The simplification chain is data-independent, so
// the first step's block partition is a pure function of the table: the
// projection onto TopStepAttrs splits the rows into blocks that are
// solved independently and then combined by that step's rule. A session
// exploits this to localize mutations — after an append or cell update
// only blocks containing touched rows can change, so it re-runs
// SolveBlock for exactly those and replays the root combine (Combine)
// over a mix of cached and fresh block repairs. Everything here is
// byte-identical to the corresponding pieces of OptSRepairCtx:
// SolveBlock is the depth-1 recursion the root fan-out performs per
// group, and Combine is the root subroutine's combine with the block
// solves factored out.

import (
	"fmt"
	"math"
	"slices"

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
// step. ok is false when the chain is empty (a trivial set repairs to
// the table itself — there is no block structure).
func (bs *BlockSolver) TopStepAttrs() (schema.AttrSet, bool) {
	if len(bs.steps) == 0 {
		return 0, false
	}
	st := bs.steps[0]
	if st.Kind == fd.KindMarriage {
		return st.X1.Union(st.X2), true
	}
	return st.Removed, true
}

// TopStepAttrs is the convenience form over a fresh chain; ok is false
// when the chain is empty or the set does not simplify.
func TopStepAttrs(ds *fd.Set) (schema.AttrSet, bool) {
	bs, success := NewBlockSolver(ds)
	if !success {
		return 0, false
	}
	return bs.TopStepAttrs()
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

// Combine replays the root combine of OptSRepairCtx over precomputed
// block repairs: groups is the canonical block partition
// (table.RowGroups over TopStepAttrs), reps[i] the optimal repair of
// groups[i] (SolveBlock output, ascending), weights[i] its BlockWeight.
// The returned row set is byte-identical to a from-scratch solve's —
// union for a common-lhs step, heaviest block for consensus, the
// maximum-weight marriage matching over one edge per block for a
// marriage step. memo, when non-nil, caches matching components
// across calls (nil is always correct, just slower). The returned
// slice is owned by the BlockSolver and valid only until its next
// Combine call.
func (bs *BlockSolver) Combine(c *solve.Ctx, t *table.Table, groups, reps [][]int32, weights []float64, memo *MatchMemo) ([]int32, error) {
	if len(bs.steps) == 0 {
		return nil, fmt.Errorf("srepair: trivial FD set has no block structure")
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	st := bs.steps[0]
	switch st.Kind {
	case fd.KindCommonLHS:
		return bs.unionAscending(c, t.Len(), reps, nil), nil

	case fd.KindConsensus:
		var best []int32
		bestW := math.Inf(-1)
		for gi, rep := range reps {
			if w := weights[gi]; w > bestW {
				best, bestW = rep, w
			}
		}
		best = slices.Clone(best)
		if !slices.IsSorted(best) {
			sortRows(best)
		}
		return best, nil

	case fd.KindMarriage:
		// Node numbering by first appearance over the whole table,
		// exactly as the root view's marriageRep builds it (its Rows()
		// is 0..n-1). The earliest row carrying any X1 (or X2) code is
		// necessarily the first row of its block — an earlier row of the
		// same block would carry the same code — and groups are ordered
		// by first row, so scanning only the block-first rows visits the
		// codes in the same first-appearance order at O(blocks) instead
		// of O(rows).
		codes1, n1 := t.ProjectionCodes(st.X1)
		codes2, n2 := t.ProjectionCodes(st.X2)
		v1Index := newCodeIndex(c, n1, t.Len())
		defer v1Index.release(c)
		v2Index := newCodeIndex(c, n2, t.Len())
		defer v2Index.release(c)
		for _, grp := range groups {
			v1Index.add(codes1[grp[0]])
			v2Index.add(codes2[grp[0]])
		}
		edges := getEdges(c, len(groups))
		defer putEdges(c, edges)
		for gi, grp := range groups {
			first := grp[0]
			edges[gi] = graph.Edge{
				I: v1Index.of(codes1[first]),
				J: v2Index.of(codes2[first]),
				W: weights[gi],
			}
		}
		sm, err := graph.NewSparseMatcher(v1Index.len(), v2Index.len(), edges)
		if err != nil {
			return nil, err
		}
		sm.Ctx = c
		sm.Memo = memo
		res, err := sm.Solve()
		if err != nil {
			return nil, err
		}
		return bs.unionAscending(c, t.Len(), reps, res.Picked), nil
	}
	return nil, fmt.Errorf("srepair: unknown simplification %v", st.Kind)
}

// unionKey pools unionAscending's membership bitmap on the solve
// context.
type unionKey struct{}

// unionAscending merges disjoint block repairs into one ascending row
// set: the reps at the picked indices (all of them when picked is nil).
// The blocks partition the table, so a membership bitmap over its rows
// plus one linear emit replaces the concat-and-sort a cold combine
// performs — same unique ascending result, O(rows) instead of
// O(rows·log rows).
func (bs *BlockSolver) unionAscending(c *solve.Ctx, n int, reps [][]int32, picked []int) []int32 {
	scr, _ := c.GetScratch(unionKey{}).(*[]bool)
	if scr == nil {
		scr = new([]bool)
	}
	in := solve.Grow(*scr, n)
	*scr = in
	defer c.PutScratch(unionKey{}, scr)
	clear(in)
	total := 0
	mark := func(rep []int32) {
		total += len(rep)
		for _, ri := range rep {
			in[ri] = true
		}
	}
	if picked == nil {
		for _, rep := range reps {
			mark(rep)
		}
	} else {
		for _, gi := range picked {
			mark(reps[gi])
		}
	}
	keep := slices.Grow(bs.unionBuf[:0], total)
	for ri := range n {
		if in[ri] {
			keep = append(keep, int32(ri))
		}
	}
	bs.unionBuf = keep
	return keep
}
