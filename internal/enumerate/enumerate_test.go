package enumerate

import (
	"math/rand"
	"testing"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/table"
	"repro/internal/workload"
)

var rABC = schema.MustNew("R", "A", "B", "C")

// bruteForceRepairs counts maximal consistent subsets by filtering all
// 2^n subsets (tiny n only) — the oracle for the enumerator.
func bruteForceRepairs(t *testing.T, ds *fd.Set, tab *table.Table) int {
	t.Helper()
	n := tab.Len()
	if n > 15 {
		t.Fatal("oracle limited to 15 tuples")
	}
	ids := tab.IDs()
	var consistent []uint64
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		var keep []int
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				keep = append(keep, ids[i])
			}
		}
		if tab.MustSubsetByIDs(keep).Satisfies(ds) {
			consistent = append(consistent, mask)
		}
	}
	count := 0
	for _, m := range consistent {
		maximal := true
		for _, m2 := range consistent {
			if m != m2 && m&m2 == m {
				maximal = false
				break
			}
		}
		if maximal {
			count++
		}
	}
	return count
}

func TestSubsetRepairsRunningExample(t *testing.T) {
	_, ds, tab := workload.Office()
	reps, count, err := SubsetRepairs(ds, tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(reps) {
		t.Fatalf("count %d != returned %d", count, len(reps))
	}
	want := bruteForceRepairs(t, ds, tab)
	if count != want {
		t.Fatalf("count = %d, oracle = %d", count, want)
	}
	seen := map[string]bool{}
	for _, r := range reps {
		if !r.Satisfies(ds) || !r.IsSubsetOf(tab) {
			t.Fatal("enumerated repair invalid")
		}
		// Maximality: no deleted tuple can come back.
		for _, id := range tab.IDs() {
			if r.Has(id) {
				continue
			}
			row, _ := tab.Row(id)
			trial := r.Clone()
			trial.MustInsert(row.ID, row.Tuple, row.Weight)
			if trial.Satisfies(ds) {
				t.Fatalf("repair %v is not maximal (can re-add %d)", r.IDs(), id)
			}
		}
		key := ""
		for _, id := range r.IDs() {
			key += string(rune(id)) + ","
		}
		if seen[key] {
			t.Fatal("duplicate repair enumerated")
		}
		seen[key] = true
	}
}

func TestSubsetRepairsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sets := []*fd.Set{
		fd.MustParseSet(rABC, "A -> B"),
		fd.MustParseSet(rABC, "A -> B", "B -> C"),
		fd.MustParseSet(rABC, "-> A"),
		fd.MustParseSet(rABC, "A -> B", "B -> A", "B -> C"),
	}
	for _, ds := range sets {
		for iter := 0; iter < 10; iter++ {
			tab := workload.RandomTable(rABC, 3+rng.Intn(6), 2, rng)
			_, count, err := SubsetRepairs(ds, tab, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteForceRepairs(t, ds, tab); count != want {
				t.Fatalf("%v: count %d, oracle %d\n%s", ds, count, want, tab)
			}
		}
	}
}

func TestSubsetRepairsLimit(t *testing.T) {
	_, ds, tab := workload.Office()
	reps, count, err := SubsetRepairs(ds, tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || count < 1 {
		t.Fatalf("limit ignored: %d returned, %d counted", len(reps), count)
	}
}

func TestSubsetRepairsEmptyTable(t *testing.T) {
	ds := fd.MustParseSet(rABC, "A -> B")
	reps, count, err := SubsetRepairs(ds, table.New(rABC), 0)
	if err != nil || count != 1 || len(reps) != 1 {
		t.Fatalf("empty table: %v %d %v", reps, count, err)
	}
}

// TestMaximalIndependentSetsFullWord: at the 64-vertex bound an
// edgeless graph has one maximal independent set, every bit of the
// word, and one edge splits it into the two sets that each drop one
// endpoint.
func TestMaximalIndependentSetsFullWord(t *testing.T) {
	adj := make([]uint64, MaxEnumVertices)
	var sets []uint64
	MaximalIndependentSets(adj, func(set uint64) { sets = append(sets, set) })
	if len(sets) != 1 || sets[0] != ^uint64(0) {
		t.Fatalf("edgeless 64-vertex graph: sets %x, want [ffffffffffffffff]", sets)
	}
	adj[0], adj[63] = 1<<63, 1
	sets = nil
	MaximalIndependentSets(adj, func(set uint64) { sets = append(sets, set) })
	if len(sets) != 2 || sets[0]|sets[1] != ^uint64(0) || sets[0]&sets[1] != ^uint64(0)&^(1|1<<63) {
		t.Fatalf("one edge 0–63: sets %x", sets)
	}
}

func TestSubsetRepairsTooLarge(t *testing.T) {
	ds := fd.MustParseSet(rABC, "A -> B")
	tab := workload.RandomTable(rABC, MaxEnumVertices+1, 3, rand.New(rand.NewSource(1)))
	if _, _, err := SubsetRepairs(ds, tab, 0); err == nil {
		t.Fatal("oversized enumeration must refuse")
	}
}

// TestCountChainMatchesEnumeration cross-validates the polynomial chain
// counter against Bron–Kerbosch on random tables.
func TestCountChainMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	chains := []*fd.Set{
		fd.MustParseSet(rABC, "A -> B"),
		fd.MustParseSet(rABC, "A -> B", "A B -> C"),
		fd.MustParseSet(rABC, "-> A", "A -> B C"),
		fd.MustParseSet(rABC, "A -> B C"),
	}
	for _, ds := range chains {
		for iter := 0; iter < 12; iter++ {
			tab := workload.RandomTable(rABC, 3+rng.Intn(9), 2, rng)
			got, err := CountChain(ds, tab)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := SubsetRepairs(ds, tab, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Int64() != int64(want) {
				t.Fatalf("%v: chain count %v, enumeration %d\n%s", ds, got, want, tab)
			}
		}
	}
}

func TestCountChainRejectsNonChain(t *testing.T) {
	ds := fd.MustParseSet(rABC, "A -> B", "B -> C")
	if _, err := CountChain(ds, workload.RandomTable(rABC, 3, 2, rand.New(rand.NewSource(2)))); err == nil {
		t.Fatal("non-chain must be rejected")
	}
}

// TestCountRunningExample: the running-example Δ is a chain; Count uses
// the polynomial path and agrees with enumeration.
func TestCountRunningExample(t *testing.T) {
	_, ds, tab := workload.Office()
	c, err := Count(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := SubsetRepairs(ds, tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Int64() != int64(want) {
		t.Fatalf("Count = %v, enumeration = %d", c, want)
	}
}

// TestCountFallsBackOnHardSets: non-chain sets go through enumeration.
func TestCountFallsBack(t *testing.T) {
	ds := fd.MustParseSet(rABC, "A -> B", "B -> C")
	tab := workload.RandomTable(rABC, 6, 2, rand.New(rand.NewSource(3)))
	c, err := Count(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := SubsetRepairs(ds, tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Int64() != int64(want) {
		t.Fatalf("Count = %v, enumeration = %d", c, want)
	}
}

// TestCountChainScales: the chain counter handles instances far beyond
// enumeration limits (repair counts grow exponentially, hence big.Int).
func TestCountChainScales(t *testing.T) {
	sc := schema.MustNew("R", "A", "B")
	ds := fd.MustParseSet(sc, "A -> B")
	tab := table.New(sc)
	// 40 groups of 3 mutually conflicting tuples: 3^40 repairs.
	id := 1
	for g := 0; g < 40; g++ {
		for v := 0; v < 3; v++ {
			tab.MustInsert(id, table.Tuple{itoa(g), itoa(v)}, 1)
			id++
		}
	}
	c, err := CountChain(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.BitLen() < 60 { // 3^40 ≈ 2^63.4
		t.Fatalf("count %v suspiciously small", c)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}
