package priority

// The encoded priority engine: the same greedy completion-optimal
// repair as CRepair in O(n log n + |≻|) time for n rows, with no
// conflict edge materialized.
//
//   - Validation reads the table's cached projection codes: a ≻ b is
//     legal iff both ids exist and some FD gives the two rows equal lhs
//     codes and different rhs codes.
//   - The completion order is Kahn's algorithm over row positions,
//     always emitting the ready row of smallest tuple id, as CRepair's
//     order does: a sorted list holds the rows ready from the start and
//     a binary min-heap on id the rows a preference releases later. A
//     cycle is whatever the loop leaves unemitted.
//   - Conflict components come from union-find over lhs groups: a row
//     is conflicted iff its lhs group under some FD holds two or more
//     rhs codes, and it joins that group's first row. Two rhs classes
//     in one group form a complete multipartite, hence connected,
//     conflict graph, so these are exactly the conflict graph's
//     components.
//
// A tuple inserted along the completion violates consistency iff it
// conflicts with an already-accepted tuple, so acceptance decisions
// decompose over the components: each component (stratum) runs as one
// scheduler task with per-FD admission maps over the projection codes.
// The accepted tuples assemble into the result table in the global
// completion order, reproducing CRepair's insertion sequence byte for
// byte.

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"slices"

	"repro/internal/fd"
	"repro/internal/solve"
	"repro/internal/table"
)

// fdCodes is one FD's whole-table lhs and rhs projection codes; groups
// is an exclusive bound on the lhs codes.
type fdCodes struct {
	lhs, rhs []int32
	groups   int
}

func codesOf(ds *fd.Set, t *table.Table) []fdCodes {
	out := make([]fdCodes, ds.Len())
	for i := range out {
		f := ds.FDAt(i)
		out[i].lhs, out[i].groups = t.ProjectionCodes(f.LHS)
		out[i].rhs, _ = t.ProjectionCodes(f.RHS)
	}
	return out
}

// conflicting reports whether rows p and q violate some FD together.
func conflicting(codes []fdCodes, p, q int32) bool {
	for _, c := range codes {
		if c.lhs[p] == c.lhs[q] && c.rhs[p] != c.rhs[q] {
			return true
		}
	}
	return false
}

// Check is Validate on the table's cached projection codes, in
// O(n log n + |≻|) time: every id of ≻ names a tuple of t, every pair
// conflicts under ds, and ≻ is acyclic. CRepairCtx runs the same
// check before it solves.
func (r *Relation) Check(ds *fd.Set, t *table.Table) error {
	_, err := r.completion(t, codesOf(ds, t))
	return err
}

// completion validates r against t and returns every row position of t
// in completion order: Kahn's algorithm over ≻, always emitting the
// ready row of smallest tuple id.
func (r *Relation) completion(t *table.Table, codes []fdCodes) ([]int32, error) {
	rows := t.Rows()
	n := len(rows)
	// ≻ over row positions, bucketed by source: p's successors are
	// succ[start[p]:start[p+1]]. The first pass validates and counts;
	// start then holds each bucket's end, and the second pass fills the
	// buckets back to front, leaving each start in place.
	start := make([]int32, n+1)
	indeg := make([]int32, n)
	for a, bs := range r.prefers {
		pa, ok := t.IndexOf(a)
		if !ok {
			return nil, fmt.Errorf("priority: unknown tuple id %d", a)
		}
		for b := range bs {
			pb, ok := t.IndexOf(b)
			if !ok {
				return nil, fmt.Errorf("priority: unknown tuple id %d", b)
			}
			if !conflicting(codes, int32(pa), int32(pb)) {
				return nil, fmt.Errorf("priority: %d ≻ %d relates non-conflicting tuples", a, b)
			}
			start[pa]++
			indeg[pb]++
		}
	}
	for p := 1; p <= n; p++ {
		start[p] += start[p-1]
	}
	succ := make([]int32, start[n])
	for a, bs := range r.prefers {
		pa, _ := t.IndexOf(a)
		for b := range bs {
			pb, _ := t.IndexOf(b)
			start[pa]--
			succ[start[pa]] = int32(pb)
		}
	}

	// Kahn's loop. The rows ready from the start are taken in id order
	// from a sorted list, and the rows a preference releases later from
	// a min-heap on id. Taking the smaller id of the two heads is the
	// same as keeping every ready row in one heap, since a row becomes
	// ready only once; the heap holds at most |≻| rows, and the list
	// needs no sorting when ids ascend with row position.
	byID := func(p, q int32) int { return cmp.Compare(rows[p].ID, rows[q].ID) }
	ready := make([]int32, 0, n)
	for p := range indeg {
		if indeg[p] == 0 {
			ready = append(ready, int32(p))
		}
	}
	if !slices.IsSortedFunc(ready, byID) {
		slices.SortFunc(ready, byID)
	}
	released := &idHeap{rows: rows}
	order := make([]int32, 0, n)
	for len(ready) > 0 || released.Len() > 0 {
		var p int32
		if released.Len() > 0 && (len(ready) == 0 || byID(released.pos[0], ready[0]) < 0) {
			p = heap.Pop(released).(int32)
		} else {
			p, ready = ready[0], ready[1:]
		}
		order = append(order, p)
		for _, q := range succ[start[p]:start[p+1]] {
			if indeg[q]--; indeg[q] == 0 {
				heap.Push(released, q)
			}
		}
	}
	if len(order) < n {
		return nil, errors.New("priority: relation is cyclic")
	}
	return order, nil
}

// idHeap is a container/heap min-heap of row positions keyed on tuple
// id.
type idHeap struct {
	rows []table.Row
	pos  []int32
}

func (h *idHeap) Len() int           { return len(h.pos) }
func (h *idHeap) Less(i, j int) bool { return h.rows[h.pos[i]].ID < h.rows[h.pos[j]].ID }
func (h *idHeap) Swap(i, j int)      { h.pos[i], h.pos[j] = h.pos[j], h.pos[i] }
func (h *idHeap) Push(x any)         { h.pos = append(h.pos, x.(int32)) }
func (h *idHeap) Pop() any {
	last := h.pos[len(h.pos)-1]
	h.pos = h.pos[:len(h.pos)-1]
	return last
}

// conflictComponents returns, per row position, whether the row is in
// conflict with some other row, and a union-find forest whose trees are
// the conflict graph's components over the conflicted rows.
func conflictComponents(codes []fdCodes, n int) (conflicted []bool, parent []int32) {
	parent = make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	conflicted = make([]bool, n)
	bound := 0
	for _, c := range codes {
		bound = max(bound, c.groups)
	}
	// Per lhs code: the group's first row, and whether the group holds
	// two or more rhs codes.
	first := make([]int32, bound)
	mixed := make([]bool, bound)
	for _, c := range codes {
		first, mixed := first[:c.groups], mixed[:c.groups]
		for g := range first {
			first[g], mixed[g] = -1, false
		}
		for ri, l := range c.lhs {
			if f := first[l]; f < 0 {
				first[l] = int32(ri)
			} else if c.rhs[ri] != c.rhs[f] {
				mixed[l] = true
			}
		}
		for ri, l := range c.lhs {
			if mixed[l] {
				conflicted[ri] = true
				if a, b := find(parent, int32(ri)), find(parent, first[l]); a != b {
					parent[a] = b
				}
			}
		}
	}
	return conflicted, parent
}

func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// CRepairCtx is CRepair on the encoded core under a solve context:
// admission runs on cached projection codes (one lhs-code → rhs-code
// map per FD instead of a table clone and full consistency re-check per
// insertion), conflict components are processed as independent strata
// on the context's scheduler, and the result is byte-identical to
// CRepair — same accepted tuples, same insertion order.
func CRepairCtx(c *solve.Ctx, ds *fd.Set, t *table.Table, r *Relation) (*table.Table, error) {
	codes := codesOf(ds, t)
	order, err := r.completion(t, codes)
	if err != nil {
		return nil, err
	}
	rows := t.Rows()
	n := len(rows)
	conflicted, parent := conflictComponents(codes, n)

	// A conflict-free tuple is always accepted; the others are decided
	// stratum by stratum. accepted is indexed by row position.
	accepted := make([]bool, n)
	for ri := range rows {
		if !conflicted[ri] {
			accepted[ri] = true
		}
	}

	// Bucket conflicted rows by component in completion order, so each
	// stratum sees its tuples exactly as CRepair's scan would. label
	// numbers a component's root by first appearance (stratum + 1).
	label := make([]int32, n)
	var strata [][]int32
	for _, ri := range order {
		if !conflicted[ri] {
			continue
		}
		root := find(parent, ri)
		if label[root] == 0 {
			strata = append(strata, nil)
			label[root] = int32(len(strata))
		}
		i := label[root] - 1
		strata[i] = append(strata[i], ri)
	}
	c.Stats().PriorityLevel(len(strata))

	err = c.ForEachBlock(len(strata),
		func(i int) int { return len(strata[i]) },
		func(wc *solve.Ctx, i int) error {
			if err := wc.Err(); err != nil {
				return err
			}
			rs := strata[i]
			// Admission maps: per FD, the rhs code committed for each
			// lhs code by the tuples accepted so far in this stratum.
			seen := make([]map[int32]int32, len(codes))
			for fi := range seen {
				seen[fi] = make(map[int32]int32, len(rs))
			}
			for _, ri := range rs {
				ok := true
				for fi, fc := range codes {
					if rhs, hit := seen[fi][fc.lhs[ri]]; hit && rhs != fc.rhs[ri] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				accepted[ri] = true
				for fi, fc := range codes {
					seen[fi][fc.lhs[ri]] = fc.rhs[ri]
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Materialize in the completion order — CRepair's insertion
	// sequence — so the result table is byte-identical to the seed's.
	chosen := table.New(t.Schema())
	for _, ri := range order {
		if accepted[ri] {
			chosen.MustInsert(rows[ri].ID, rows[ri].Tuple, rows[ri].Weight)
		}
	}
	return chosen, nil
}
