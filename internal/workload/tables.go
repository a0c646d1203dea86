// Package workload generates the synthetic inputs used by the tests,
// examples and the bench harness: random weighted tables with controlled
// dirtiness, the running example of Figure 1, random graphs for the
// vertex-cover reductions, non-mixed CNF formulas, and tripartite
// triangle instances. All generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/table"
)

// Office returns the running example of the paper: the schema
// Office(facility, room, floor, city), the FD set of Example 2.2, and
// table T of Figure 1(a).
func Office() (*schema.Schema, *fd.Set, *table.Table) {
	sc := schema.MustNew("Office", "facility", "room", "floor", "city")
	ds := fd.MustParseSet(sc, "facility -> city", "facility room -> floor")
	t := table.New(sc)
	t.MustInsert(1, table.Tuple{"HQ", "322", "3", "Paris"}, 2)
	t.MustInsert(2, table.Tuple{"HQ", "322", "30", "Madrid"}, 1)
	t.MustInsert(3, table.Tuple{"HQ", "122", "1", "Madrid"}, 1)
	t.MustInsert(4, table.Tuple{"Lab1", "B35", "3", "London"}, 2)
	return sc, ds, t
}

// RandomTable generates n tuples over sc with each attribute drawn
// uniformly from a domain of the given size (values "v0".."v{d-1}").
// All weights are 1. Smaller domains produce denser FD violations.
func RandomTable(sc *schema.Schema, n, domain int, rng *rand.Rand) *table.Table {
	return RandomWeightedTable(sc, n, domain, 1, rng)
}

// RandomWeightedTable is RandomTable with integer weights drawn
// uniformly from 1..maxWeight. Rows are generated into a batch and
// appended in one AppendRows call (same RNG draw order as the
// historical per-row inserts, so seeds reproduce identical tables).
func RandomWeightedTable(sc *schema.Schema, n, domain, maxWeight int, rng *rand.Rand) *table.Table {
	if domain < 1 {
		panic("workload: domain must be ≥ 1")
	}
	tuples := make([]table.Tuple, n)
	weights := make([]float64, n)
	for i := range tuples {
		tup := make(table.Tuple, sc.Arity())
		for a := range tup {
			tup[a] = fmt.Sprintf("v%d", rng.Intn(domain))
		}
		w := 1.0
		if maxWeight > 1 {
			w = float64(1 + rng.Intn(maxWeight))
		}
		tuples[i], weights[i] = tup, w
	}
	t := table.New(sc)
	t.MustAppendRows(tuples, weights)
	return t
}

// ShuffledIDs returns a copy of t with the same rows in the same order
// under identifiers 1..n in random order, so ids do not ascend with row
// position. Every generator here appends, so its ids always do; a
// differential suite takes this copy to tell ids from positions.
func ShuffledIDs(t *table.Table, rng *rand.Rand) *table.Table {
	out := table.New(t.Schema())
	perm := rng.Perm(t.Len())
	for i, r := range t.Rows() {
		out.MustInsert(perm[i]+1, r.Tuple, r.Weight)
	}
	return out
}

// DirtyTable builds a table that starts consistent with respect to ds
// and then corrupts a fraction of the cells, which yields realistic
// "mostly clean" cleaning workloads. The clean table assigns, per
// group key, FD-consistent values (every attribute is a function of the
// first attribute); dirtyFrac of the cells are then overwritten with
// random domain values.
func DirtyTable(sc *schema.Schema, ds *fd.Set, n, domain int, dirtyFrac float64, rng *rand.Rand) *table.Table {
	k := sc.Arity()
	tuples := make([]table.Tuple, n)
	for i := range tuples {
		// Derive every attribute deterministically from a group id: any
		// such table satisfies every FD (all attributes are functions of
		// the group id and of each other within a group).
		g := rng.Intn(domain)
		tup := make(table.Tuple, k)
		for a := 0; a < k; a++ {
			tup[a] = fmt.Sprintf("g%d_a%d", g, a)
		}
		tuples[i] = tup
	}
	t := table.New(sc)
	t.MustAppendRows(tuples, nil)
	// Corrupt cells.
	for _, r := range t.Rows() {
		for a := 0; a < k; a++ {
			if rng.Float64() < dirtyFrac {
				t.SetCellInPlace(r.ID, a, fmt.Sprintf("dirty%d", rng.Intn(domain)))
			}
		}
	}
	_ = ds // the construction is consistent for every FD set by design
	return t
}

// ZipfTable generates n tuples whose attribute values follow an
// approximate Zipf distribution over the domain (rank r gets
// probability ∝ 1/r), producing skewed group sizes as in real dirty
// data.
func ZipfTable(sc *schema.Schema, n, domain int, rng *rand.Rand) *table.Table {
	if domain < 1 {
		panic("workload: domain must be ≥ 1")
	}
	// Precompute cumulative 1/r weights.
	cum := make([]float64, domain)
	total := 0.0
	for r := 0; r < domain; r++ {
		total += 1.0 / float64(r+1)
		cum[r] = total
	}
	draw := func() int {
		x := rng.Float64() * total
		for r := 0; r < domain; r++ {
			if x <= cum[r] {
				return r
			}
		}
		return domain - 1
	}
	tuples := make([]table.Tuple, n)
	for i := range tuples {
		tup := make(table.Tuple, sc.Arity())
		for a := range tup {
			tup[a] = fmt.Sprintf("z%d", draw())
		}
		tuples[i] = tup
	}
	t := table.New(sc)
	t.MustAppendRows(tuples, nil)
	return t
}

// MarriageSparseTable generates the shape the sparse matching engine
// targets: n rows over sc whose first two attributes (the married pair
// X1, X2 under e.g. {A→B, B→A, B→C}) range over ~n/blockRows distinct
// values each, with ~blockRows rows per observed (X1, X2) block. The
// marriage graph then has many nodes but only about n/blockRows edges —
// a dense matcher would pad it to a quadratic matrix of slack entries.
// Remaining attributes draw from a small domain of rhsDomain values so
// blocks are internally dirty. Weights are integers in 1..4.
func MarriageSparseTable(sc *schema.Schema, n, blockRows, rhsDomain int, rng *rand.Rand) *table.Table {
	if sc.Arity() < 2 {
		panic("workload: marriage-sparse needs arity ≥ 2")
	}
	if blockRows < 1 || rhsDomain < 1 {
		panic("workload: blockRows and rhsDomain must be ≥ 1")
	}
	blocks := (n + blockRows - 1) / blockRows
	tuples := make([]table.Tuple, 0, n)
	weights := make([]float64, 0, n)
	for b := 0; b < blocks && len(tuples) < n; b++ {
		a := fmt.Sprintf("a%d", rng.Intn(blocks))
		bv := fmt.Sprintf("b%d", rng.Intn(blocks))
		for r := 0; r < blockRows && len(tuples) < n; r++ {
			tup := make(table.Tuple, sc.Arity())
			tup[0], tup[1] = a, bv
			for c := 2; c < len(tup); c++ {
				tup[c] = fmt.Sprintf("c%d", rng.Intn(rhsDomain))
			}
			tuples = append(tuples, tup)
			weights = append(weights, float64(1+rng.Intn(4)))
		}
	}
	t := table.New(sc)
	t.MustAppendRows(tuples, weights)
	return t
}

// HardSets returns the four APX-hard FD sets of Table 1 over the
// schema R(A, B, C), keyed by their display names. These are the
// standard instances for exercising Exact and Approx2 (OptSRepair
// fails on all of them).
func HardSets() map[string]*fd.Set {
	sc := schema.MustNew("R", "A", "B", "C")
	return map[string]*fd.Set{
		"ΔA→B→C":    fd.MustParseSet(sc, "A -> B", "B -> C"),
		"ΔA→C←B":    fd.MustParseSet(sc, "A -> C", "B -> C"),
		"ΔAB→C→B":   fd.MustParseSet(sc, "A B -> C", "C -> B"),
		"ΔAB↔AC↔BC": fd.MustParseSet(sc, "A B -> C", "A C -> B", "B C -> A"),
	}
}

// TractableSets returns FD sets over R(A, B, C) on the polynomial side
// of the dichotomy, covering all three simplification kinds (common
// lhs, consensus, lhs marriage) and their compositions.
func TractableSets() map[string]*fd.Set {
	sc := schema.MustNew("R", "A", "B", "C")
	return map[string]*fd.Set{
		"chain":      fd.MustParseSet(sc, "A -> B", "A B -> C"),
		"common-lhs": fd.MustParseSet(sc, "A -> B", "A -> C"),
		"consensus":  fd.MustParseSet(sc, "-> C", "A -> B"),
		"marriage":   fd.MustParseSet(sc, "A -> B", "B -> A", "B -> C"),
		"key-swap":   fd.MustParseSet(sc, "A -> B", "B -> A"),
	}
}
