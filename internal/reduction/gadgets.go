package reduction

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/table"
	"repro/internal/workload"
)

// VCUpdateGadget is the construction in the proof of Theorem 4.10: a
// graph G becomes a table over R(A, B, C) under ∆A↔B→C =
// {A → B, B → A, B → C} such that G has a vertex cover of size k iff
// the table has a consistent update of distance 2|E| + k. All tuples
// have unit weight and the table is duplicate free.
func VCUpdateGadget(g *workload.SimpleGraph) (*fd.Set, *table.Table) {
	ds := fd.MustParseSet(SourceABC, "A -> B", "B -> A", "B -> C")
	t := table.New(SourceABC)
	id := 1
	for _, e := range g.Edges {
		u, v := vertexName(e[0]), vertexName(e[1])
		t.MustInsert(id, table.Tuple{u, v, "0"}, 1)
		id++
		t.MustInsert(id, table.Tuple{v, u, "0"}, 1)
		id++
	}
	for v := 0; v < g.N; v++ {
		t.MustInsert(id, table.Tuple{vertexName(v), vertexName(v), "1"}, 1)
		id++
	}
	return ds, t
}

// VCUpdateFromCover realizes the upper-bound direction of Theorem 4.10:
// given a vertex cover, it builds a consistent update of the gadget
// table with distance exactly 2|E| + |cover|.
func VCUpdateFromCover(g *workload.SimpleGraph, t *table.Table, cover map[int]bool) (*table.Table, error) {
	for _, e := range g.Edges {
		if !cover[e[0]] && !cover[e[1]] {
			return nil, fmt.Errorf("reduction: edge (%d,%d) uncovered", e[0], e[1])
		}
	}
	u := t.Clone()
	id := 1
	for _, e := range g.Edges {
		cu, cv := e[0], e[1]
		picked := cu
		if !cover[cu] {
			picked = cv
		}
		name := vertexName(picked)
		// Both edge tuples become (picked, picked, 0), one cell change
		// each: the tuple whose A already equals picked changes its B,
		// the other changes its A.
		if picked == cu {
			u.SetCellInPlace(id, 1, name)   // (u, v, 0) → (u, u, 0)
			u.SetCellInPlace(id+1, 0, name) // (v, u, 0) → (u, u, 0)
		} else {
			u.SetCellInPlace(id, 0, name)   // (u, v, 0) → (v, v, 0)
			u.SetCellInPlace(id+1, 1, name) // (v, u, 0) → (v, v, 0)
		}
		id += 2
	}
	// Vertex tuples of cover members become (v, v, 0).
	for v := 0; v < g.N; v++ {
		if cover[v] {
			u.SetCellInPlace(id, 2, "0")
		}
		id++
	}
	return u, nil
}

func vertexName(v int) string { return fmt.Sprintf("n%d", v) }

// VCSubsetGadget reduces vertex cover to optimal S-repairs under
// ∆A→B→C = {A → B, B → C}. This construction is ours (the MAX-2-SAT
// reduction of Gribkoff et al. is cited but not spelled out in the
// paper): every vertex v yields a tuple (v, v, 1);
// every edge e = {u, v} yields gadget tuples (g_e, u, 0) and
// (g_e, v, 0). The two gadget tuples of an edge conflict with each
// other (A → B), and the gadget tuple pointing at a vertex conflicts
// with that vertex tuple (B → C). The minimum number of deletions is
// exactly |E| + vc(G) on unweighted, duplicate-free tables.
func VCSubsetGadget(g *workload.SimpleGraph) (*fd.Set, *table.Table) {
	ds := fd.MustParseSet(SourceABC, "A -> B", "B -> C")
	t := table.New(SourceABC)
	id := 1
	for v := 0; v < g.N; v++ {
		t.MustInsert(id, table.Tuple{vertexName(v), vertexName(v), "1"}, 1)
		id++
	}
	for ei, e := range g.Edges {
		ge := fmt.Sprintf("e%d", ei)
		t.MustInsert(id, table.Tuple{ge, vertexName(e[0]), "0"}, 1)
		id++
		t.MustInsert(id, table.Tuple{ge, vertexName(e[1]), "0"}, 1)
		id++
	}
	return ds, t
}

// NonMixedSATGadget is the reduction of Lemma A.13: a non-mixed CNF
// becomes a table over R(A, B, C) under ∆AB→C→B = {AB → C, C → B},
// with a tuple (c_j, polarity, x_i) per occurrence of variable x_i in
// clause c_j. The maximum number of simultaneously satisfiable clauses
// equals the maximum size of a consistent subset.
func NonMixedSATGadget(f workload.CNF) (*fd.Set, *table.Table, error) {
	if !f.IsNonMixed() {
		return nil, nil, fmt.Errorf("reduction: formula is not non-mixed")
	}
	ds := fd.MustParseSet(SourceABC, "A B -> C", "C -> B")
	t := table.New(SourceABC)
	id := 1
	for j, c := range f.Clauses {
		for _, l := range c.Lits {
			b := "1"
			if l.Neg {
				b = "0"
			}
			t.MustInsert(id, table.Tuple{fmt.Sprintf("c%d", j), b, fmt.Sprintf("x%d", l.Var)}, 1)
			id++
		}
	}
	return ds, t, nil
}

// TriangleGadget is the reduction of Lemma A.11: a tripartite triangle
// instance becomes a table over R(A, B, C) under ∆AB↔AC↔BC =
// {AB → C, AC → B, BC → A}, one tuple per triangle. The maximum number
// of edge-disjoint triangles equals the maximum size of a consistent
// subset.
func TriangleGadget(ti workload.TriangleInstance) (*fd.Set, *table.Table) {
	ds := fd.MustParseSet(SourceABC, "A B -> C", "A C -> B", "B C -> A")
	t := table.New(SourceABC)
	for i, tr := range ti.Triangles {
		t.MustInsert(i+1, table.Tuple{tr[0], tr[1], tr[2]}, 1)
	}
	return ds, t
}
