package priority

// The encoded priority engine: the same greedy completion-optimal
// repair as CRepair, but with the per-step clone-and-recheck replaced
// by per-FD admission maps over cached int32 projection codes. A tuple
// inserted along the topological completion violates consistency iff it
// conflicts (same lhs code, different rhs code under some FD) with an
// already-accepted tuple — so acceptance decisions decompose over the
// conflict graph's components, and each component (stratum) runs as one
// scheduler task. The accepted tuples assemble into the result table in
// the global topological order, reproducing CRepair's insertion
// sequence byte for byte.

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/solve"
	"repro/internal/table"
)

// validateAgainst is Validate with the conflict graph precomputed, so
// CRepairCtx builds it once for validation and component discovery.
func (r *Relation) validateAgainst(edges []table.ConflictEdge, t *table.Table) error {
	conflicts := map[[2]int]bool{}
	for _, e := range edges {
		conflicts[[2]int{e.ID1, e.ID2}] = true
		conflicts[[2]int{e.ID2, e.ID1}] = true
	}
	for a, bs := range r.prefers {
		if !t.Has(a) {
			return fmt.Errorf("priority: unknown tuple id %d", a)
		}
		for b := range bs {
			if !t.Has(b) {
				return fmt.Errorf("priority: unknown tuple id %d", b)
			}
			if !conflicts[[2]int{a, b}] {
				return fmt.Errorf("priority: %d ≻ %d relates non-conflicting tuples", a, b)
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	var visit func(v int) error
	visit = func(v int) error {
		color[v] = gray
		for b := range r.prefers[v] {
			switch color[b] {
			case gray:
				return fmt.Errorf("priority: cycle through %d and %d", v, b)
			case white:
				if err := visit(b); err != nil {
					return err
				}
			}
		}
		color[v] = black
		return nil
	}
	for a := range r.prefers {
		if color[a] == white {
			if err := visit(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// CRepairCtx is CRepair on the encoded core under a solve context:
// admission runs on cached projection codes (one lhs-code → rhs-code
// map per FD instead of a table clone and full consistency re-check per
// insertion), conflict components are processed as independent strata
// on the context's scheduler, and the result is byte-identical to
// CRepair — same accepted tuples, same insertion order.
func CRepairCtx(c *solve.Ctx, ds *fd.Set, t *table.Table, r *Relation) (*table.Table, error) {
	rows := t.Rows()
	n := len(rows)

	edges := t.ConflictGraph(ds)
	if err := r.validateAgainst(edges, t); err != nil {
		return nil, err
	}
	order, err := topoOrder(t.IDs(), r)
	if err != nil {
		return nil, err
	}

	// Row positions by id, and the conflict components via union-find.
	idx := make(map[int]int32, n)
	for ri := range rows {
		idx[rows[ri].ID] = int32(ri)
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	conflicted := make([]bool, n)
	for _, e := range edges {
		u, v := idx[e.ID1], idx[e.ID2]
		conflicted[u], conflicted[v] = true, true
		ru, rv := find(u), find(v)
		if ru != rv {
			parent[ru] = rv
		}
	}

	// A conflict-free tuple is always accepted; the others are decided
	// stratum by stratum. accepted is indexed by row position.
	accepted := make([]bool, n)
	for ri := range rows {
		if !conflicted[ri] {
			accepted[ri] = true
		}
	}

	// Bucket conflicted rows by component root in global topo order, so
	// each stratum sees its tuples exactly as CRepair's scan would.
	compOf := make(map[int32]int32)
	var comps [][]int32 // row positions, in topo order
	for _, id := range order {
		ri := idx[id]
		if !conflicted[ri] {
			continue
		}
		root := find(ri)
		ci, ok := compOf[root]
		if !ok {
			ci = int32(len(comps))
			compOf[root] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], ri)
	}
	c.Stats().PriorityLevel(len(comps))

	// Whole-table projection codes per FD, computed up front so the
	// parallel strata only read the cached columns.
	fds := ds.FDs()
	lhsCodes := make([][]int32, len(fds))
	rhsCodes := make([][]int32, len(fds))
	for fi, f := range fds {
		lhsCodes[fi], _ = t.ProjectionCodes(f.LHS)
		rhsCodes[fi], _ = t.ProjectionCodes(f.RHS)
	}

	err = c.ForEachBlock(len(comps),
		func(i int) int { return len(comps[i]) },
		func(wc *solve.Ctx, i int) error {
			if err := wc.Err(); err != nil {
				return err
			}
			// Admission maps: per FD, the rhs code committed for each
			// lhs code by the tuples accepted so far in this stratum.
			seen := make([]map[int32]int32, len(fds))
			for fi := range seen {
				seen[fi] = make(map[int32]int32, len(comps[i]))
			}
			for _, ri := range comps[i] {
				ok := true
				for fi := range fds {
					if rhs, hit := seen[fi][lhsCodes[fi][ri]]; hit && rhs != rhsCodes[fi][ri] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				accepted[ri] = true
				for fi := range fds {
					seen[fi][lhsCodes[fi][ri]] = rhsCodes[fi][ri]
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Materialize in the global topological order — CRepair's insertion
	// sequence — so the result table is byte-identical to the seed's.
	chosen := table.New(t.Schema())
	for _, id := range order {
		ri := idx[id]
		if accepted[ri] {
			chosen.MustInsert(rows[ri].ID, rows[ri].Tuple, rows[ri].Weight)
		}
	}
	return chosen, nil
}
