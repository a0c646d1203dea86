package cfd

// The encoded CFD engine: the same repair problem as repairProblem, but
// built over the table's cached int32 projection codes instead of
// string-typed tuple scans. Pattern matching touches strings once per
// row (to test the constant entries of the tableau); everything pairwise
// — agreement on X, disagreement on A — happens on codes, and the
// per-pattern conflict groups fan out on the solve context's
// work-stealing scheduler. The seed path stays as the differential
// oracle: both build the same vertex-cover instance (survivors in row
// order as vertices, the lexicographically sorted deduplicated edge
// list), so the covers, and the repairs, are byte-identical. The
// engine keeps that instance as survivor positions and pairs:
// Bar-Yehuda–Even runs on them directly, and only the exact search
// builds a graph.

import (
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

// edgesOf appends the unit's conflict edges (pairs of survivor
// ordinals with differing rhs codes) to buf as graph.PackPair keys, in
// output-proportional time: members are bucketed by rhs code, and edges
// are the cross pairs of distinct buckets — never the O(g²) scan of a
// clean group.
func (u cfdUnit) edgesOf(buf []uint64) []uint64 {
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
					buf = append(buf, graph.PackPair(min(u1, u2), max(u1, u2)))
				}
			}
		}
	}
	return buf
}

// problem is the encoded CFD repair problem: the forced deletions
// (unary violators, as ids in row order, and their total weight), the
// survivors' row positions in row order, and the conflict pairs among
// survivors as survivor ordinals — sorted and deduplicated, so their
// order is the lexicographic edge order repairProblem's graph has.
type problem struct {
	forced     []int
	forcedCost float64
	surv       []int32
	weights    []float64 // by survivor ordinal
	pairs      [][2]int32
}

// repairProblemCtx is repairProblem over the encoded core: forced
// deletions from a linear unary-violation pass, survivors grouped per
// CFD by cached lhs projection codes, and conflict pairs collected per
// (CFD, group) unit on the scheduler, then sorted and deduplicated.
// Vertex and edge order are repairProblem's, so the cover solvers
// behave identically; only the exact search builds a graph from them.
func repairProblemCtx(c *solve.Ctx, cs []*CFD, t *table.Table) (problem, error) {
	rows := t.Rows()
	n := len(rows)
	c.Stats().CFDPattern(len(cs))

	// Forced deletions: unary violators, in row order (matching the seed
	// scan). Constants are the only string comparisons in the engine.
	var p problem
	forcedMask := make([]bool, n)
	for ri := range rows {
		for _, cf := range cs {
			if cf.UnaryViolation(rows[ri].Tuple) {
				forcedMask[ri] = true
				p.forced = append(p.forced, rows[ri].ID)
				p.forcedCost += rows[ri].Weight
				break
			}
		}
	}
	// Survivors in row order; cover vertices are survivor ordinals.
	p.surv = make([]int32, 0, n-len(p.forced))
	p.weights = make([]float64, 0, n-len(p.forced))
	for ri := range rows {
		if !forcedMask[ri] {
			p.surv = append(p.surv, int32(ri))
			p.weights = append(p.weights, rows[ri].Weight)
		}
	}

	// One grouping pass per CFD: survivors matching the lhs pattern,
	// bucketed by lhs projection code. Groups with ≥ 2 members become
	// conflict units.
	var units []cfdUnit
	for _, cf := range cs {
		if err := c.Err(); err != nil {
			return problem{}, err
		}
		var lhsSet schema.AttrSet
		for _, a := range cf.lhs {
			lhsSet = lhsSet.Add(a)
		}
		lhsCodes, lhsGroups := t.ProjectionCodes(lhsSet)
		rhsCodes, _ := t.ProjectionCodes(schema.Singleton(cf.rhs))
		codeToLocal := c.Int32s(lhsGroups)
		for i := range codeToLocal {
			codeToLocal[i] = -1
		}
		var groups [][]int32 // survivor ordinals per lhs code
		for ord, ri := range p.surv {
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
				units = append(units, cfdUnit{members: members, rhsCodes: rhsCodes, rows: p.surv})
			}
		}
	}

	// Fan the units onto the scheduler, one edge buffer per unit; the
	// sort below makes the collection order irrelevant.
	unitEdges := make([][]uint64, len(units))
	err := c.ForEachBlock(len(units),
		func(i int) int { return len(units[i].members) },
		func(wc *solve.Ctx, i int) error {
			if err := wc.Err(); err != nil {
				return err
			}
			unitEdges[i] = units[i].edgesOf(nil)
			return nil
		})
	if err != nil {
		return problem{}, err
	}
	p.pairs = graph.SortPairs(unitEdges)
	return p, nil
}

// repair keeps the survivors the cover leaves out.
func (p problem) repair(t *table.Table, covered func(ord int) bool) Result {
	keep := make([]int32, 0, len(p.surv))
	for ord, ri := range p.surv {
		if !covered(ord) {
			keep = append(keep, ri)
		}
	}
	rep := table.ViewOfRows(t, keep).Materialize()
	return Result{Repair: rep, Forced: p.forced, ForcedCost: p.forcedCost, TotalCost: table.DistSub(rep, t)}
}

// ExactSRepairCtx is ExactSRepair on the encoded core under a solve
// context: the conflict instance is built from cached projection codes
// with per-pattern groups fanned onto the context's scheduler, and the
// branch-and-bound cover search honors the context's cancellation.
// Results are byte-identical to ExactSRepair.
func ExactSRepairCtx(c *solve.Ctx, cs []*CFD, t *table.Table) (Result, error) {
	p, err := repairProblemCtx(c, cs, t)
	if err != nil {
		return Result{}, err
	}
	cover, err := graph.FromPairs(p.weights, p.pairs).ExactMinVertexCoverCtx(c)
	if err != nil {
		return Result{}, err
	}
	return p.repair(t, func(ord int) bool { return cover[ord] }), nil
}

// Approx2SRepairCtx is Approx2SRepair on the encoded core: the
// polynomial path, linear in rows and conflict edges instead of
// quadratic in rows. Bar-Yehuda–Even runs on the survivor pairs as
// they are. Results are byte-identical to Approx2SRepair.
func Approx2SRepairCtx(c *solve.Ctx, cs []*CFD, t *table.Table) (Result, error) {
	p, err := repairProblemCtx(c, cs, t)
	if err != nil {
		return Result{}, err
	}
	cover := graph.BarYehudaEven(p.weights, p.pairs)
	return p.repair(t, func(ord int) bool { return cover[ord] }), nil
}
