package cfd

// The encoded CFD engine: the same repair problem as repairProblem, but
// built over the table's cached int32 projection codes instead of
// string-typed tuple scans. Pattern matching touches strings once per
// row (to test the constant entries of the tableau); everything pairwise
// — agreement on X, disagreement on A — happens on codes, and the
// per-pattern conflict groups fan out on the solve context's
// work-stealing scheduler. The seed path stays as the differential
// oracle: both construct the identical vertex-cover instance (same
// vertex order, same lexicographically sorted deduplicated edge list),
// so the unchanged cover solvers return byte-identical repairs.

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/table"
)

// cfdUnit is one independent conflict unit of the encoded engine: the
// survivors matching one CFD's pattern that agree on its lhs projection,
// plus that CFD's rhs code column. Units are scanned for conflicting
// pairs independently, so they become scheduler tasks.
type cfdUnit struct {
	members  []int32 // survivor ordinals, ascending
	rhsCodes []int32 // whole-table rhs codes, indexed by row index
	rows     []int32 // survivor ordinal -> row index
}

// edgesOf enumerates the unit's conflict edges (pairs of survivor
// ordinals with differing rhs codes) in output-proportional time:
// members are bucketed by rhs code, and edges are the cross pairs of
// distinct buckets — never the O(g²) scan of a clean group.
func (u cfdUnit) edgesOf(buf [][2]int32) [][2]int32 {
	// Bucket by rhs code in first-appearance order, preserving the
	// ascending ordinal order within buckets.
	type bucket struct {
		code    int32
		members []int32
	}
	var buckets []bucket
	idx := make(map[int32]int, 4)
	for _, m := range u.members {
		code := u.rhsCodes[u.rows[m]]
		b, ok := idx[code]
		if !ok {
			b = len(buckets)
			idx[code] = b
			buckets = append(buckets, bucket{code: code})
		}
		buckets[b].members = append(buckets[b].members, m)
	}
	if len(buckets) < 2 {
		return buf
	}
	for a := 0; a < len(buckets); a++ {
		for b := a + 1; b < len(buckets); b++ {
			for _, u1 := range buckets[a].members {
				for _, u2 := range buckets[b].members {
					lo, hi := u1, u2
					if lo > hi {
						lo, hi = hi, lo
					}
					buf = append(buf, [2]int32{lo, hi})
				}
			}
		}
	}
	return buf
}

// repairProblemCtx is repairProblem over the encoded core: forced
// deletions from a linear unary-violation pass, survivors grouped per
// CFD by cached lhs projection codes, conflict edges collected per
// (CFD, group) unit on the scheduler, then sorted and deduplicated into
// the exact graph repairProblem builds — same vertex order (survivors in
// row order), same edge order (lexicographic by endpoint pair), so the
// cover solvers behave identically.
func repairProblemCtx(c *solve.Ctx, cs []*CFD, t *table.Table) (forced []int, g *graph.Graph, ids []int, err error) {
	rows := t.Rows()
	n := len(rows)
	c.Stats().CFDPattern(len(cs))

	// Forced deletions: unary violators, in row order (matching the seed
	// scan). Constants are the only string comparisons in the engine.
	forcedMask := make([]bool, n)
	for ri := range rows {
		for _, cf := range cs {
			if cf.UnaryViolation(rows[ri].Tuple) {
				forcedMask[ri] = true
				forced = append(forced, rows[ri].ID)
				break
			}
		}
	}
	// Survivors in row order; graph vertices are survivor ordinals.
	surv := make([]int32, 0, n-len(forced))
	ids = make([]int, 0, n-len(forced))
	weights := make([]float64, 0, n-len(forced))
	for ri := range rows {
		if !forcedMask[ri] {
			surv = append(surv, int32(ri))
			ids = append(ids, rows[ri].ID)
			weights = append(weights, rows[ri].Weight)
		}
	}
	g = graph.MustNewGraph(weights)

	// One grouping pass per CFD: survivors matching the lhs pattern,
	// bucketed by lhs projection code. Groups with ≥ 2 members become
	// conflict units.
	var units []cfdUnit
	for _, cf := range cs {
		if err := c.Err(); err != nil {
			return nil, nil, nil, err
		}
		var lhsSet schema.AttrSet
		for _, p := range cf.lhs {
			lhsSet = lhsSet.Add(p)
		}
		lhsCodes, lhsGroups := t.ProjectionCodes(lhsSet)
		rhsCodes, _ := t.ProjectionCodes(schema.Singleton(cf.rhs))
		codeToLocal := c.Int32s(lhsGroups)
		for i := range codeToLocal {
			codeToLocal[i] = -1
		}
		var groups [][]int32 // survivor ordinals per lhs code
		for ord, ri := range surv {
			if !cf.matchesLHS(rows[ri].Tuple) {
				continue
			}
			l := codeToLocal[lhsCodes[ri]]
			if l < 0 {
				l = int32(len(groups))
				codeToLocal[lhsCodes[ri]] = l
				groups = append(groups, nil)
			}
			groups[l] = append(groups[l], int32(ord))
		}
		c.PutInt32s(codeToLocal)
		for _, members := range groups {
			if len(members) >= 2 {
				units = append(units, cfdUnit{members: members, rhsCodes: rhsCodes, rows: surv})
			}
		}
	}

	// Fan the units onto the scheduler, one edge buffer per unit; the
	// deterministic merge below makes the collection order irrelevant.
	unitEdges := make([][][2]int32, len(units))
	err = c.ForEachBlock(len(units),
		func(i int) int { return len(units[i].members) },
		func(wc *solve.Ctx, i int) error {
			if err := wc.Err(); err != nil {
				return err
			}
			unitEdges[i] = units[i].edgesOf(nil)
			return nil
		})
	if err != nil {
		return nil, nil, nil, err
	}
	total := 0
	for _, es := range unitEdges {
		total += len(es)
	}
	all := make([][2]int32, 0, total)
	for _, es := range unitEdges {
		all = append(all, es...)
	}
	slices.SortFunc(all, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	var prev [2]int32 = [2]int32{-1, -1}
	for _, e := range all {
		if e == prev {
			continue
		}
		prev = e
		g.AddEdgeUnchecked(int(e[0]), int(e[1]))
	}
	return forced, g, ids, nil
}

// ExactSRepairCtx is ExactSRepair on the encoded core under a solve
// context: the conflict instance is built from cached projection codes
// with per-pattern groups fanned onto the context's scheduler, and the
// branch-and-bound cover search honors the context's cancellation.
// Results are byte-identical to ExactSRepair.
func ExactSRepairCtx(c *solve.Ctx, cs []*CFD, t *table.Table) (Result, error) {
	forced, g, ids, err := repairProblemCtx(c, cs, t)
	if err != nil {
		return Result{}, err
	}
	cover, err := g.ExactMinVertexCoverCtx(c)
	if err != nil {
		return Result{}, err
	}
	return assemble(t, forced, ids, cover), nil
}

// Approx2SRepairCtx is Approx2SRepair on the encoded core: the
// polynomial path, linear in rows and conflict edges instead of
// quadratic in rows. Results are byte-identical to Approx2SRepair.
func Approx2SRepairCtx(c *solve.Ctx, cs []*CFD, t *table.Table) (Result, error) {
	forced, g, ids, err := repairProblemCtx(c, cs, t)
	if err != nil {
		return Result{}, err
	}
	return assemble(t, forced, ids, g.ApproxVertexCoverBE()), nil
}
