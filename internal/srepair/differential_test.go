package srepair

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/fd"
	"repro/internal/graph"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/table"
	"repro/internal/workload"
)

// This file pins the dictionary-encoded, view-recursive implementation
// to the seed implementation: the reference functions below are the
// seed's string-keyed, materializing algorithms, copied verbatim (only
// renamed). The differential tests assert byte-identical repairs (same
// identifiers, hence same tuples, and same cost) on randomized tables
// across the tractable sets and all four hard sets of Table 1.

func refOptSRepair(ds *fd.Set, t *table.Table) (*table.Table, error) {
	nt := ds.RemoveTrivial()
	if nt.Len() == 0 {
		return t, nil
	}
	st, ok := nt.NextSimplification()
	if !ok {
		return nil, ErrNoSimplification
	}
	switch st.Kind {
	case fd.KindCommonLHS:
		return refCommonLHSRep(st, t)
	case fd.KindConsensus:
		return refConsensusRep(st, t)
	default:
		return refMarriageRep(st, t)
	}
}

func refCommonLHSRep(st fd.Simplification, t *table.Table) (*table.Table, error) {
	var keep []int
	for _, g := range refGroupBy(t, st.Removed) {
		block := t.MustSubsetByIDs(g.ids)
		rep, err := refOptSRepair(st.After, block)
		if err != nil {
			return nil, err
		}
		keep = append(keep, rep.IDs()...)
	}
	return t.SubsetByIDs(keep)
}

func refConsensusRep(st fd.Simplification, t *table.Table) (*table.Table, error) {
	if t.Len() == 0 {
		return t, nil
	}
	var best *table.Table
	bestW := math.Inf(-1)
	for _, g := range refGroupBy(t, st.Removed) {
		block := t.MustSubsetByIDs(g.ids)
		rep, err := refOptSRepair(st.After, block)
		if err != nil {
			return nil, err
		}
		if w := rep.TotalWeight(); w > bestW {
			best, bestW = rep, w
		}
	}
	return best, nil
}

func refMarriageRep(st fd.Simplification, t *table.Table) (*table.Table, error) {
	if t.Len() == 0 {
		return t, nil
	}
	v1Index := map[string]int{}
	v2Index := map[string]int{}
	for _, r := range t.Rows() {
		k1 := table.KeyOf(r.Tuple, st.X1)
		if _, ok := v1Index[k1]; !ok {
			v1Index[k1] = len(v1Index)
		}
		k2 := table.KeyOf(r.Tuple, st.X2)
		if _, ok := v2Index[k2]; !ok {
			v2Index[k2] = len(v2Index)
		}
	}
	type edge struct {
		rep *table.Table
		w   float64
	}
	edges := map[[2]int]edge{}
	for _, g := range refGroupBy(t, st.X1.Union(st.X2)) {
		block := t.MustSubsetByIDs(g.ids)
		rep, err := refOptSRepair(st.After, block)
		if err != nil {
			return nil, err
		}
		first, _ := block.Row(block.IDs()[0])
		i := v1Index[table.KeyOf(first.Tuple, st.X1)]
		j := v2Index[table.KeyOf(first.Tuple, st.X2)]
		edges[[2]int{i, j}] = edge{rep: rep, w: rep.TotalWeight()}
	}
	weight := func(i, j int) float64 {
		if e, ok := edges[[2]int{i, j}]; ok {
			return e.w
		}
		return math.Inf(-1)
	}
	match, _, err := graph.MaxWeightBipartiteMatching(len(v1Index), len(v2Index), weight)
	if err != nil {
		return nil, err
	}
	var keep []int
	for i, j := range match {
		if j < 0 {
			continue
		}
		if e, ok := edges[[2]int{i, j}]; ok {
			keep = append(keep, e.rep.IDs()...)
		}
	}
	return t.SubsetByIDs(keep)
}

type refGroup struct{ ids []int }

// refGroupBy is the seed's string-keyed GroupBy.
func refGroupBy(t *table.Table, attrs schema.AttrSet) []refGroup {
	idx := map[string]int{}
	var out []refGroup
	for _, r := range t.Rows() {
		k := table.KeyOf(r.Tuple, attrs)
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, refGroup{})
		}
		out[i].ids = append(out[i].ids, r.ID)
	}
	return out
}

func refExact(ds *fd.Set, t *table.Table) (*table.Table, error) {
	g, ids := refConflictProblem(ds, t)
	cover, err := g.ExactMinVertexCover()
	if err != nil {
		return nil, err
	}
	return refCoverToSubset(t, ids, cover), nil
}

func refApprox2(ds *fd.Set, t *table.Table) (*table.Table, error) {
	g, ids := refConflictProblem(ds, t)
	cover := g.ApproxVertexCoverBE()
	return refCoverToSubset(t, ids, cover), nil
}

// refConflictProblem builds the vertex-cover instance from the seed's
// string-keyed conflict enumeration.
func refConflictProblem(ds *fd.Set, t *table.Table) (*graph.Graph, []int) {
	ids := t.IDs()
	index := make(map[int]int, len(ids))
	weights := make([]float64, len(ids))
	for i, id := range ids {
		index[id] = i
		weights[i] = t.Weight(id)
	}
	g := graph.MustNewGraph(weights)
	seen := map[[2]int]bool{}
	for _, f := range ds.FDs() {
		byLHS := map[string][]int{}
		var order []string
		for _, r := range t.Rows() {
			k := table.KeyOf(r.Tuple, f.LHS)
			if _, ok := byLHS[k]; !ok {
				order = append(order, k)
			}
			byLHS[k] = append(byLHS[k], r.ID)
		}
		for _, k := range order {
			members := byLHS[k]
			for i := 0; i < len(members); i++ {
				ri, _ := t.Row(members[i])
				for j := i + 1; j < len(members); j++ {
					rj, _ := t.Row(members[j])
					if table.KeyOf(ri.Tuple, f.RHS) != table.KeyOf(rj.Tuple, f.RHS) {
						a, b := members[i], members[j]
						if a > b {
							a, b = b, a
						}
						if !seen[[2]int{a, b}] {
							seen[[2]int{a, b}] = true
							if err := g.AddEdge(index[a], index[b]); err != nil {
								panic(err)
							}
						}
					}
				}
			}
		}
	}
	return g, ids
}

func refCoverToSubset(t *table.Table, ids []int, cover map[int]bool) *table.Table {
	var keep []int
	for i, id := range ids {
		if !cover[i] {
			keep = append(keep, id)
		}
	}
	return t.MustSubsetByIDs(keep)
}

// refMakeMaximal is the seed's clone-per-candidate greedy extension.
func refMakeMaximal(ds *fd.Set, t, s *table.Table) (*table.Table, error) {
	cur := s.Clone()
	type cand struct {
		id int
		w  float64
	}
	var cands []cand
	for _, id := range t.IDs() {
		if !cur.Has(id) {
			cands = append(cands, cand{id, t.Weight(id)})
		}
	}
	for swapped := true; swapped; {
		swapped = false
		for i := 1; i < len(cands); i++ {
			if cands[i].w > cands[i-1].w {
				cands[i], cands[i-1] = cands[i-1], cands[i]
				swapped = true
			}
		}
	}
	for _, c := range cands {
		r, _ := t.Row(c.id)
		trial := cur.Clone()
		trial.MustInsert(r.ID, r.Tuple, r.Weight)
		if trial.Satisfies(ds) {
			cur = trial
		}
	}
	return cur, nil
}

func sameRepair(t *testing.T, name string, base, got, want *table.Table) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
		return
	}
	if !slices.Equal(got.IDs(), want.IDs()) {
		t.Fatalf("%s: kept %v, seed kept %v", name, got.IDs(), want.IDs())
	}
	if !table.WeightEq(Cost(base, got), Cost(base, want)) {
		t.Fatalf("%s: cost %v, seed cost %v", name, Cost(base, got), Cost(base, want))
	}
}

// TestDifferentialOptSRepair pins the view-based OptSRepair to the seed
// recursion on randomized weighted tables for every tractable FD set.
func TestDifferentialOptSRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, ds := range workload.TractableSets() {
		sc := ds.Schema()
		for iter := 0; iter < 60; iter++ {
			n := rng.Intn(40)
			dom := 2 + rng.Intn(5)
			tab := workload.RandomWeightedTable(sc, n, dom, 4, rng)
			got, err := OptSRepair(ds, tab)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := refOptSRepair(ds, tab)
			if err != nil {
				t.Fatalf("%s ref: %v", name, err)
			}
			sameRepair(t, name, tab, got, want)
			if !IsConsistentSubset(ds, tab, got) {
				t.Fatalf("%s: result is not a consistent subset", name)
			}
		}
	}
}

// TestDifferentialExactApprox2 pins the code-based conflict graph and
// the scratch-allocated vertex-cover search to the seed behavior on all
// four hard FD sets of Table 1, on random tables and on one whose ids
// do not ascend with row position.
func TestDifferentialExactApprox2(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shuffled := rand.New(rand.NewSource(46))
	for name, ds := range workload.HardSets() {
		sc := ds.Schema()
		for iter := 0; iter < 15; iter++ {
			n := 2 + rng.Intn(18)
			dom := 2 + rng.Intn(3)
			tab := workload.RandomWeightedTable(sc, n, dom, 3, rng)
			sameCoverRepairs(t, name, ds, tab)
		}
		tab := workload.ShuffledIDs(workload.RandomWeightedTable(sc, 19, 3, 3, shuffled), shuffled)
		sameCoverRepairs(t, name+"/shuffled ids", ds, tab)
	}
}

// sameCoverRepairs checks Exact and Approx2 against the seed's cover
// repairs on one table.
func sameCoverRepairs(t *testing.T, name string, ds *fd.Set, tab *table.Table) {
	t.Helper()
	gotE, err := Exact(ds, tab)
	if err != nil {
		t.Fatalf("%s exact: %v", name, err)
	}
	wantE, err := refExact(ds, tab)
	if err != nil {
		t.Fatalf("%s ref exact: %v", name, err)
	}
	sameRepair(t, name+"/exact", tab, gotE, wantE)

	gotA, err := Approx2(ds, tab)
	if err != nil {
		t.Fatalf("%s approx2: %v", name, err)
	}
	wantA, err := refApprox2(ds, tab)
	if err != nil {
		t.Fatalf("%s ref approx2: %v", name, err)
	}
	sameRepair(t, name+"/approx2", tab, gotA, wantA)
}

// TestDifferentialMakeMaximal pins the incremental group-membership
// extension to the seed's clone-per-candidate loop.
func TestDifferentialMakeMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for name, ds := range workload.HardSets() {
		sc := ds.Schema()
		for iter := 0; iter < 15; iter++ {
			tab := workload.RandomWeightedTable(sc, 2+rng.Intn(20), 2+rng.Intn(3), 3, rng)
			s, err := Approx2(ds, tab)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MakeMaximal(ds, tab, s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMakeMaximal(ds, tab, s)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.IDs(), slices.Sorted(slices.Values(want.IDs()))) {
				t.Fatalf("%s: kept %v, seed kept %v", name, got.IDs(), want.IDs())
			}
		}
	}
}

// TestParallelMatchesSerial runs the block solver on a work-stealing
// scheduler context and asserts repairs identical to the serial solve.
// Under -race this doubles as the race-detector test for the shared
// dictionary encoding and the scheduler (many goroutines sharing one
// scheduled Ctx exercises slot acquisition, stealing and the worker
// arena shards).
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for name, ds := range workload.TractableSets() {
		sc := ds.Schema()
		for _, n := range []int{50, 400} {
			tab := workload.RandomWeightedTable(sc, n, n/8+2, 4, rng)
			serial, err := OptSRepair(ds, tab)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Solve concurrently from several goroutines sharing one
			// scheduled context too: the lazy encoding build and
			// projection cache must be race-free.
			sched := solve.New(8, nil, nil)
			var wg sync.WaitGroup
			results := make([]*table.Table, 4)
			errs := make([]error, 4)
			for i := range results {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = OptSRepairCtx(sched, ds, tab.Clone())
				}(i)
			}
			wg.Wait()
			for i := range results {
				if errs[i] != nil {
					t.Fatalf("%s parallel: %v", name, errs[i])
				}
				sameRepair(t, name+"/parallel", tab, results[i], serial)
			}
		}
	}
}
