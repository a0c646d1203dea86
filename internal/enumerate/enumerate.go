// Package enumerate implements subset-repair enumeration and counting.
//
// A subset repair (S-repair proper, Section 2.3) is a maximal
// consistent subset, i.e. a maximal independent set of the conflict
// graph. The package provides:
//
//   - Enumeration of all subset repairs via Bron–Kerbosch with pivoting
//     on the complement of the conflict graph (bounded output);
//   - Counting: brute-force via the enumerator for any FD set, and the
//     polynomial counter for chain FD sets — the exact class for which
//     Livshits & Kimelfeld (PODS 2017, cited in Section 2.2) show
//     counting is in polynomial time; outside that class counting is
//     #P-complete, so Count falls back to enumeration on small inputs.
//
// The chain counter exploits the same structure as OptSRepair: under a
// common lhs the blocks are independent (counts multiply), and under a
// consensus FD every repair lives in exactly one block (counts add).
package enumerate

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/fd"
	"repro/internal/table"
)

// MaxEnumVertices bounds the conflict-graph size for enumeration (the
// bitset implementation uses one word).
const MaxEnumVertices = 64

// SubsetRepairs enumerates the subset repairs of t under ds (maximal
// consistent subsets). At most limit repairs are returned (limit ≤ 0
// means unbounded); the total count is returned alongside. Requires at
// most MaxEnumVertices tuples.
func SubsetRepairs(ds *fd.Set, t *table.Table, limit int) ([]*table.Table, int, error) {
	n := t.Len()
	if n > MaxEnumVertices {
		return nil, 0, fmt.Errorf("enumerate: limited to %d tuples, got %d", MaxEnumVertices, n)
	}
	if n == 0 {
		return []*table.Table{t.Clone()}, 1, nil
	}
	ids := t.IDs()
	index := make(map[int]int, n)
	for i, id := range ids {
		index[id] = i
	}
	adj := make([]uint64, n)
	for _, e := range t.ConflictGraph(ds) {
		i, j := index[e.ID1], index[e.ID2]
		adj[i] |= 1 << uint(j)
		adj[j] |= 1 << uint(i)
	}
	var out []*table.Table
	count := 0
	MaximalIndependentSets(adj, func(set uint64) {
		count++
		if limit <= 0 || len(out) < limit {
			var keep []int
			for m := set; m != 0; m &= m - 1 {
				keep = append(keep, ids[bits.TrailingZeros64(m)])
			}
			out = append(out, t.MustSubsetByIDs(keep))
		}
	})
	return out, count, nil
}

// MaximalIndependentSets calls visit once per maximal independent set
// of the graph on len(adj) ≤ MaxEnumVertices vertices, where bit j of
// adj[i] is set iff i and j are adjacent. Each set is a bitset over
// vertex ordinals. The sets are the maximal cliques of the complement
// graph, found by Bron–Kerbosch with pivoting; the visiting order is a
// function of adj alone.
func MaximalIndependentSets(adj []uint64, visit func(set uint64)) {
	n := len(adj)
	full := uint64(1)<<uint(n) - 1 // all ones at n = 64: the shift yields 0
	compat := make([]uint64, n)
	for i := range compat {
		compat[i] = full &^ (1 << uint(i)) &^ adj[i]
	}
	var bk func(r, p, x uint64)
	bk = func(r, p, x uint64) {
		if p == 0 && x == 0 {
			visit(r)
			return
		}
		// Pivot: vertex of p∪x with most neighbours in p.
		pivot, best := -1, -1
		for m := p | x; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			if d := bits.OnesCount64(p & compat[v]); d > best {
				pivot, best = v, d
			}
		}
		cand := p
		if pivot >= 0 {
			cand = p &^ compat[pivot]
		}
		for m := cand; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			vb := uint64(1) << uint(v)
			bk(r|vb, p&compat[v], x&compat[v])
			p &^= vb
			x |= vb
		}
	}
	bk(0, full, 0)
}

// CountChain counts the subset repairs of t under a chain FD set in
// polynomial time, following the common-lhs/consensus recursion (blocks
// multiply under a common lhs, add under a consensus FD). Returns an
// error if the set is not a chain.
func CountChain(ds *fd.Set, t *table.Table) (*big.Int, error) {
	can := ds.Canonical()
	if !can.IsChain() {
		return nil, fmt.Errorf("enumerate: %v is not a chain FD set; counting is #P-complete outside chains", ds)
	}
	return countChain(can, t), nil
}

func countChain(ds *fd.Set, t *table.Table) *big.Int {
	nt := ds.RemoveTrivial()
	if nt.Len() == 0 || t.Len() == 0 {
		return big.NewInt(1)
	}
	st, ok := nt.NextSimplification()
	if !ok {
		// Unreachable for chains (Corollary 3.6 argument).
		panic("enumerate: chain set failed to simplify")
	}
	switch st.Kind {
	case fd.KindCommonLHS, fd.KindConsensus:
		groups := t.GroupBy(st.Removed)
		total := big.NewInt(1)
		if st.Kind == fd.KindConsensus {
			total = big.NewInt(0)
		}
		for _, g := range groups {
			block := t.MustSubsetByIDs(g.IDs)
			c := countChain(st.After, block)
			if st.Kind == fd.KindCommonLHS {
				total.Mul(total, c)
			} else {
				total.Add(total, c)
			}
		}
		return total
	default:
		panic("enumerate: chain simplification used a marriage")
	}
}

// Count counts subset repairs: polynomial for chain FD sets, falling
// back to Bron–Kerbosch enumeration otherwise (subject to the size
// limit).
func Count(ds *fd.Set, t *table.Table) (*big.Int, error) {
	if c, err := CountChain(ds, t); err == nil {
		return c, nil
	}
	_, n, err := SubsetRepairs(ds, t, 1)
	if err != nil {
		return nil, err
	}
	return big.NewInt(int64(n)), nil
}
