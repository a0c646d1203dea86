package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/fdrepair"
	"repro/internal/cfd"
	"repro/internal/cqa"
	"repro/internal/denial"
	"repro/internal/fd"
	"repro/internal/graph"
	"repro/internal/priority"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/srepair"
	"repro/internal/table"
	"repro/internal/urepair"
	"repro/internal/workload"
)

// benchResult is one benchmark measurement in BENCH_srepair.json. The
// file gives future PRs a machine-readable perf trajectory of the
// repair engine; compare snapshots across commits before claiming a
// speedup. SolveStats, when present, is the counter snapshot of one
// representative (untimed) solve run after the measurement: recursion
// nodes, block fan-out, matcher path dispatches and arena reuse.
type benchResult struct {
	Name        string          `json:"name"`
	Iterations  int             `json:"iterations"`
	NsPerOp     float64         `json:"ns_per_op"`
	BytesPerOp  int64           `json:"bytes_per_op"`
	AllocsPerOp int64           `json:"allocs_per_op"`
	SolveStats  *solve.Snapshot `json:"solve_stats,omitempty"`
}

// writeBenchJSON measures the repair-engine hot paths (the Figure-1
// running example, the four hard sets of Table 1 under exact/approx
// vertex cover, and an OptSRepair scaling point) and writes the results
// as a JSON array.
func writeBenchJSON(path string) error {
	type benchCase struct {
		name  string
		fn    func(b *testing.B)
		stats func() *solve.Snapshot
	}
	var cases []benchCase

	_, officeDS, officeT := workload.Office()
	cases = append(cases, benchCase{"Fig1RunningExample/optsrepair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srepair.OptSRepair(officeDS, officeT); err != nil {
				b.Fatal(err)
			}
		}
	}, optSRepairStats(officeDS, officeT)})

	hard := workload.HardSets()
	hardNames := make([]string, 0, len(hard))
	for name := range hard {
		hardNames = append(hardNames, name)
	}
	sort.Strings(hardNames)
	for _, name := range hardNames {
		ds := hard[name]
		tab := workload.RandomTable(ds.Schema(), 28, 3, rand.New(rand.NewSource(2)))
		cases = append(cases,
			benchCase{"Table1HardSets/" + name + "/exact", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := srepair.Exact(ds, tab); err != nil {
						b.Fatal(err)
					}
				}
			}, nil},
			benchCase{"Table1HardSets/" + name + "/approx2", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := srepair.Approx2(ds, tab); err != nil {
						b.Fatal(err)
					}
				}
			}, nil},
		)
	}

	chainSC := workload.TractableSets()["chain"].Schema()
	chainDS := fd.MustParseSet(chainSC, "A -> B", "A B -> C")
	scaleTab := workload.RandomTable(chainSC, 1600, 162, rand.New(rand.NewSource(1600)))
	cases = append(cases, benchCase{"OptSRepairScaling/chain/n=1600", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srepair.OptSRepair(chainDS, scaleTab); err != nil {
				b.Fatal(err)
			}
		}
	}, optSRepairStats(chainDS, scaleTab)})

	// Marriage-heavy scaling: the matching-dominated shape (one edge per
	// observed block, distinct-value counts ~n/10) that the sparse
	// matching engine targets; mirrors bench_test's E9 marriage case.
	marriageDS := fd.MustParseSet(chainSC, "A -> B", "B -> A", "B -> C")
	marriageTab := workload.RandomTable(chainSC, 6400, 642, rand.New(rand.NewSource(6400)))
	cases = append(cases, benchCase{"OptSRepairScaling/marriage/n=6400", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srepair.OptSRepair(marriageDS, marriageTab); err != nil {
				b.Fatal(err)
			}
		}
	}, optSRepairStats(marriageDS, marriageTab)})
	for _, n := range []int{6400, 102400} {
		// The 102400 point became feasible once workload generation was
		// batched through table.AppendRows.
		sparseTab := workload.MarriageSparseTable(chainSC, n, 3, 3, rand.New(rand.NewSource(int64(n))))
		cases = append(cases, benchCase{fmt.Sprintf("OptSRepairScaling/marriage-sparse/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srepair.OptSRepair(marriageDS, sparseTab); err != nil {
					b.Fatal(err)
				}
			}
		}, optSRepairStats(marriageDS, sparseTab)})
	}

	// U-repair planner over a multi-component FD set (key swap +
	// common-lhs + approximation): the per-component solves ride the
	// work-stealing scheduler, and the attached solve_stats record the
	// planner's per-component decisions (which subroutine won, component
	// count and sizes).
	planSC := schema.MustNew("R", "A", "B", "C", "D", "E", "F", "G", "H")
	planDS := fd.MustParseSet(planSC, "A -> B", "B -> A", "C -> D", "C -> E", "F -> G", "H -> G")
	planTab := workload.RandomTable(planSC, 400, 9, rand.New(rand.NewSource(400)))
	cases = append(cases, benchCase{"URepairPlanner/multi-component/n=400", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := urepair.Repair(planDS, planTab); err != nil {
				b.Fatal(err)
			}
		}
	}, uRepairStats(planDS, planTab)})

	// Constraint-extension engines: each class pairs the seed
	// string-tuple implementation (kept as the differential oracle)
	// against the encoded Solver-core port on the same instance, plus an
	// encoded-only 102400-row scaling point per class. Seed sizes sit
	// where the quadratic pair scans (CFD, denial) and the
	// clone-per-insertion admission loop (priority) still finish in
	// seconds; the seed CQA enumerator is bounded at 64 tuples total, so
	// its oracle point runs at n=48 while the encoded side's
	// per-component bound carries the class to n=102400.
	extStats := func(run func(*solve.Ctx) error) func() *solve.Snapshot {
		return func() *solve.Snapshot {
			st := new(solve.Stats)
			if err := run(solve.New(1, nil, st)); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: stats solve failed: %v\n", err)
				return nil
			}
			snap := st.Snapshot()
			return &snap
		}
	}
	extSV := fdrepair.NewSolver()

	cfdSC := schema.MustNew("C", "P", "K", "V")
	cfdEmb := fd.MustParseSet(cfdSC, "P K -> V").FDs()[0]
	mustCFD := func(lhsPat []table.Value, rhsPat table.Value) *cfd.CFD {
		c, err := cfd.New(cfdSC, cfdEmb, lhsPat, rhsPat)
		if err != nil {
			panic(fmt.Sprintf("benchjson: building CFD: %v", err))
		}
		return c
	}
	// One pattern-scoped wildcard CFD and one with a constant rhs, so the
	// cases exercise both the grouped conflict scan and the forced
	// (unary-violation) path.
	cfdCs := []*cfd.CFD{
		mustCFD([]table.Value{"p0", cfd.Wildcard}, cfd.Wildcard),
		mustCFD([]table.Value{"p1", cfd.Wildcard}, "v0"),
	}
	cfdTab := workload.CFDTable(cfdSC, 3200, 4, 3, 2, rand.New(rand.NewSource(3200)))
	cfdBigTab := workload.CFDTable(cfdSC, 102400, 4, 3, 2, rand.New(rand.NewSource(102400)))
	cfdCase := func(name string, tab *table.Table, encoded bool) benchCase {
		var stats func() *solve.Snapshot
		if encoded {
			stats = extStats(func(c *solve.Ctx) error {
				_, err := cfd.Approx2SRepairCtx(c, cfdCs, tab)
				return err
			})
		}
		return benchCase{name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if encoded {
					_, err = extSV.ApproxCFDSRepair(cfdCs, tab)
				} else {
					_, err = cfd.Approx2SRepair(cfdCs, tab)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}, stats}
	}
	cases = append(cases,
		cfdCase("ConstraintExtScaling/cfd/seed-oracle/n=3200", cfdTab, false),
		cfdCase("ConstraintExtScaling/cfd/encoded/n=3200", cfdTab, true),
		cfdCase("ConstraintExtScaling/cfd/encoded/n=102400", cfdBigTab, true),
	)

	denSC := schema.MustNew("S", "dept", "rank", "salary")
	denC, err := denial.Parse(denSC, "t1.dept = t2.dept & t1.rank < t2.rank & t1.salary > t2.salary")
	if err != nil {
		return fmt.Errorf("benchjson: parsing denial constraint: %w", err)
	}
	denCs := []*denial.Constraint{denC}
	denTab := workload.RankedTable(denSC, 1600, 4, 40, rand.New(rand.NewSource(1600)))
	denBigTab := workload.RankedTable(denSC, 102400, 4, 40, rand.New(rand.NewSource(102400)))
	denCase := func(name string, tab *table.Table, encoded bool) benchCase {
		var stats func() *solve.Snapshot
		if encoded {
			stats = extStats(func(c *solve.Ctx) error {
				_, err := denial.Approx2SRepairCtx(c, denCs, tab)
				return err
			})
		}
		return benchCase{name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if encoded {
					_, _, err = extSV.ApproxDenialSRepair(denCs, tab)
				} else {
					_, err = denial.Approx2SRepair(denCs, tab)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}, stats}
	}
	cases = append(cases,
		denCase("ConstraintExtScaling/denial/seed-oracle/n=1600", denTab, false),
		denCase("ConstraintExtScaling/denial/encoded/n=1600", denTab, true),
		denCase("ConstraintExtScaling/denial/encoded/n=102400", denBigTab, true),
	)

	blockSC := schema.MustNew("Q", "K", "V")
	blockDS := fd.MustParseSet(blockSC, "K -> V")
	// Projecting the block key makes every certain-answer set nonempty:
	// each conflict component keeps at least one tuple in every repair,
	// so each block key survives everywhere.
	blockProj, err := blockSC.Set("K")
	if err != nil {
		return fmt.Errorf("benchjson: cqa projection: %w", err)
	}
	blockQ, err := cqa.NewQuery(blockSC, blockProj)
	if err != nil {
		return fmt.Errorf("benchjson: cqa query: %w", err)
	}
	cqaTab := workload.SmallComponentTable(blockSC, 48, 2, 2, rand.New(rand.NewSource(48)))
	cqaBigTab := workload.SmallComponentTable(blockSC, 102400, 3, 2, rand.New(rand.NewSource(102400)))
	cqaCase := func(name string, tab *table.Table, encoded bool) benchCase {
		var stats func() *solve.Snapshot
		if encoded {
			stats = extStats(func(c *solve.Ctx) error {
				_, err := cqa.ConsistentAnswersCtx(c, blockDS, tab, blockQ)
				return err
			})
		}
		return benchCase{name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if encoded {
					_, err = extSV.ConsistentAnswers(blockDS, tab, blockQ)
				} else {
					_, err = cqa.ConsistentAnswers(blockDS, tab, blockQ)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}, stats}
	}
	cases = append(cases,
		cqaCase("ConstraintExtScaling/cqa/seed-oracle/n=48", cqaTab, false),
		cqaCase("ConstraintExtScaling/cqa/encoded/n=48", cqaTab, true),
		cqaCase("ConstraintExtScaling/cqa/encoded/n=102400", cqaBigTab, true),
	)

	prioTab := workload.SmallComponentTable(blockSC, 1600, 3, 2, rand.New(rand.NewSource(1600)))
	prioBigTab := workload.SmallComponentTable(blockSC, 102400, 3, 2, rand.New(rand.NewSource(7)))
	buildPrio := func(tab *table.Table) *priority.Relation {
		r := priority.NewRelation()
		for _, p := range workload.PriorityPairs(tab.ConflictGraph(blockDS), 0.7, rand.New(rand.NewSource(11))) {
			r.Add(p[0], p[1])
		}
		return r
	}
	prioRel, prioBigRel := buildPrio(prioTab), buildPrio(prioBigTab)
	prioCase := func(name string, tab *table.Table, rel *priority.Relation, encoded bool) benchCase {
		var stats func() *solve.Snapshot
		if encoded {
			stats = extStats(func(c *solve.Ctx) error {
				_, err := priority.CRepairCtx(c, blockDS, tab, rel)
				return err
			})
		}
		return benchCase{name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if encoded {
					_, err = extSV.PrioritizedRepair(blockDS, tab, rel)
				} else {
					_, err = priority.CRepair(blockDS, tab, rel)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}, stats}
	}
	cases = append(cases,
		prioCase("ConstraintExtScaling/priority/seed-oracle/n=1600", prioTab, prioRel, false),
		prioCase("ConstraintExtScaling/priority/encoded/n=1600", prioTab, prioRel, true),
		prioCase("ConstraintExtScaling/priority/encoded/n=102400", prioBigTab, prioBigRel, true),
	)

	// Matching engines head to head on one sparse instance (~4 edges per
	// left node): the dense Hungarian pays O(n³) on the padded matrix,
	// the sparse engine O(V·E·log V) on the real edges. Same generator
	// (and seed scheme) as bench_test's MatchingScaling, so the two
	// suites measure the same instances.
	const matchN = 480
	matchEdges, matchWeight := workload.SparseMatchingInstance(matchN, 4, 1000, rand.New(rand.NewSource(17+matchN)))
	cases = append(cases,
		benchCase{"MatchingScaling/hungarian/n=480", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := graph.MaxWeightBipartiteMatching(matchN, matchN, matchWeight); err != nil {
					b.Fatal(err)
				}
			}
		}, nil},
		benchCase{"MatchingScaling/sparse/n=480", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sm, err := graph.NewSparseMatcher(matchN, matchN, matchEdges)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sm.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		}, nil},
	)

	// Mixed-size batch workload: interleaved n=100 and n=102400 tables
	// run as one SolveBatch on one Solver, the request-serving shape the
	// batch entry point exists for. The companion small-after-large case
	// measures a small solve on a Solver that has already repaired the
	// 102400-row table; its B/op must track the small table, not the
	// large one (the schema smoke asserts the ratio, and fdrepair's
	// TestStickyHintsRegression pins it at 2× against a fresh Solver).
	// These cases run last, and their tables are generated lazily on
	// first use: they keep a 102400-row table live, and anything
	// measured after that heap shift would pay its GC noise.
	var batchOnce sync.Once
	var smallBatchTab, largeBatchTab *table.Table
	var batchReqs []fdrepair.Request
	initBatch := func() {
		batchOnce.Do(func() {
			smallBatchTab = workload.MarriageSparseTable(chainSC, 100, 3, 3, rand.New(rand.NewSource(100)))
			largeBatchTab = workload.MarriageSparseTable(chainSC, 102400, 3, 3, rand.New(rand.NewSource(102400)))
			for i := 0; i < 10; i++ {
				tab := smallBatchTab
				if i == 2 || i == 7 {
					tab = largeBatchTab
				}
				batchReqs = append(batchReqs, fdrepair.Request{FDs: marriageDS, Table: tab})
			}
		})
	}
	cases = append(cases,
		benchCase{"SolveBatch/mixed-size/interleaved-8x100+2x102400", func(b *testing.B) {
			initBatch()
			b.ResetTimer()
			b.ReportAllocs()
			sv := fdrepair.NewSolver()
			for i := 0; i < b.N; i++ {
				for _, res := range sv.SolveBatch(batchReqs) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		}, func() *solve.Snapshot {
			initBatch()
			sv := fdrepair.NewSolver(fdrepair.WithStats())
			for _, res := range sv.SolveBatch(batchReqs) {
				if res.Err != nil {
					fmt.Fprintf(os.Stderr, "benchjson: stats batch failed: %v\n", res.Err)
					return nil
				}
			}
			snap := sv.Stats()
			return &snap
		}},
		benchCase{"SolveBatch/small-solo/n=100", func(b *testing.B) {
			initBatch()
			b.ResetTimer()
			b.ReportAllocs()
			sv := fdrepair.NewSolver()
			for i := 0; i < b.N; i++ {
				if _, _, err := sv.OptimalSRepair(marriageDS, smallBatchTab); err != nil {
					b.Fatal(err)
				}
			}
		}, nil},
		benchCase{"SolveBatch/small-after-large/n=100", func(b *testing.B) {
			initBatch()
			b.ReportAllocs()
			sv := fdrepair.NewSolver()
			if _, _, err := sv.OptimalSRepair(marriageDS, largeBatchTab); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sv.OptimalSRepair(marriageDS, smallBatchTab); err != nil {
					b.Fatal(err)
				}
			}
		}, nil},
	)

	// Resident-session incremental repair: mutate a 102400-row table a
	// little (append 1% duplicate-shaped rows, or touch 0.1% of cells)
	// and re-repair through fdrepair.Session, which re-solves only the
	// dirty blocks and splices the cached clean-block repairs back in.
	// Each measured iteration is one mutation batch plus one Repair; the
	// session is rebuilt (fresh clone, untimed warm solve) every 8
	// rounds so the table never drifts far from the named size. The
	// companion append-1%-resolve points are the sessionless controls:
	// the identical mutation stream through the plain table mutators
	// (which drop the cached encoding) followed by a from-scratch
	// OptSRepair — what a caller without a resident session pays per
	// round-trip. The schema smoke holds each session case to 1/5 of its
	// control. Tables are generated lazily for the same GC-noise reason
	// as the batch cases.
	var incOnce sync.Once
	var chainBigTab, marriageBigTab *table.Table
	initInc := func() {
		incOnce.Do(func() {
			chainBigTab = workload.RandomWeightedTable(chainSC, 102400, 10240, 4, rand.New(rand.NewSource(31)))
			marriageBigTab = workload.MarriageSparseTable(chainSC, 102400, 3, 3, rand.New(rand.NewSource(102400)))
		})
	}
	appendRows := func(frac float64) func(*fdrepair.Session, *rand.Rand) error {
		return func(s *fdrepair.Session, rng *rand.Rand) error {
			rows := s.Table().Rows()
			k := int(float64(len(rows)) * frac)
			if k < 1 {
				k = 1
			}
			tuples := make([]table.Tuple, k)
			weights := make([]float64, k)
			for i := range tuples {
				src := rows[rng.Intn(len(rows))]
				tuples[i] = src.Tuple
				weights[i] = src.Weight
			}
			_, err := s.AppendRows(tuples, weights)
			return err
		}
	}
	// touchCells models corrections: each touched cell gets a fresh
	// value the table has never seen (a typo fix, a late-arriving true
	// value). Fresh values split equality classes, preserving the
	// workload's sparse block shape across rounds; copying values
	// between random rows instead would progressively merge blocks and
	// coalesce the marriage graph into giant matching components — a
	// denser instance than the one the case is named for.
	touchSeq := 0
	touchCells := func(frac float64) func(*fdrepair.Session, *rand.Rand) error {
		return func(s *fdrepair.Session, rng *rand.Rand) error {
			rows := s.Table().Rows()
			arity := s.Table().Schema().Arity()
			k := int(float64(len(rows)*arity) * frac)
			if k < 1 {
				k = 1
			}
			updates := make([]table.CellUpdate, k)
			for i := range updates {
				touchSeq++
				updates[i] = table.CellUpdate{
					ID:   rows[rng.Intn(len(rows))].ID,
					Attr: rng.Intn(arity),
					Val:  fmt.Sprintf("fix-%d", touchSeq),
				}
			}
			return s.SetCells(updates)
		}
	}
	incCase := func(name string, ds *fd.Set, tab **table.Table, mutate func(*fdrepair.Session, *rand.Rand) error) benchCase {
		return benchCase{name, func(b *testing.B) {
			initInc()
			sv := fdrepair.NewSolver()
			rng := rand.New(rand.NewSource(9))
			var sess *fdrepair.Session
			round := 0
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if round == 0 {
					b.StopTimer()
					var err error
					sess, err = fdrepair.NewSession(sv, ds, (*tab).Clone())
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := sess.Repair(); err != nil { // warm the block cache
						b.Fatal(err)
					}
					// Collect the setup garbage (table clone, cold encoding,
					// full solve) outside the timed window so background
					// marking does not bleed into the incremental iterations.
					runtime.GC()
					b.StartTimer()
				}
				if err := mutate(sess, rng); err != nil {
					b.Fatal(err)
				}
				if _, _, err := sess.Repair(); err != nil {
					b.Fatal(err)
				}
				round = (round + 1) % 8
			}
		}, nil}
	}
	coldResolveCase := func(name string, ds *fd.Set, tab **table.Table) benchCase {
		return benchCase{name, func(b *testing.B) {
			initInc()
			rng := rand.New(rand.NewSource(9))
			var cur *table.Table
			round := 0
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if round == 0 {
					b.StopTimer()
					cur = (*tab).Clone()
					runtime.GC()
					b.StartTimer()
				}
				rows := cur.Rows()
				k := len(rows) / 100
				tuples := make([]table.Tuple, k)
				weights := make([]float64, k)
				for j := range tuples {
					src := rows[rng.Intn(len(rows))]
					tuples[j] = src.Tuple
					weights[j] = src.Weight
				}
				if _, err := cur.AppendRows(tuples, weights); err != nil {
					b.Fatal(err)
				}
				if _, err := srepair.OptSRepair(ds, cur); err != nil {
					b.Fatal(err)
				}
				round = (round + 1) % 8
			}
		}, func() *solve.Snapshot {
			initInc()
			return optSRepairStats(ds, *tab)()
		}}
	}
	cases = append(cases,
		benchCase{"OptSRepairScaling/chain/n=102400", func(b *testing.B) {
			initInc()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srepair.OptSRepair(chainDS, chainBigTab); err != nil {
					b.Fatal(err)
				}
			}
		}, func() *solve.Snapshot {
			initInc()
			return optSRepairStats(chainDS, chainBigTab)()
		}},
		coldResolveCase("OptSRepairScaling/append-1%-resolve/chain/n=102400", chainDS, &chainBigTab),
		coldResolveCase("OptSRepairScaling/append-1%-resolve/marriage-sparse/n=102400", marriageDS, &marriageBigTab),
		incCase("IncrementalRepair/append-1%/chain/n=102400", chainDS, &chainBigTab, appendRows(0.01)),
		incCase("IncrementalRepair/touch-0.1%-cells/chain/n=102400", chainDS, &chainBigTab, touchCells(0.001)),
		incCase("IncrementalRepair/append-1%/marriage-sparse/n=102400", marriageDS, &marriageBigTab, appendRows(0.01)),
		incCase("IncrementalRepair/touch-0.1%-cells/marriage-sparse/n=102400", marriageDS, &marriageBigTab, touchCells(0.001)),
	)

	// Out-of-core ingestion at the ROADMAP's 10M-row scale. The chunked
	// and buffered cases consume byte-identical streams (the generator is
	// deterministic), so their bytes_per_op ratio is the tentpole's
	// measurement: the chunked path allocates O(chunk + dictionary +
	// encoding) while the seed path additionally materializes one Go
	// string per cell. The scaling points solve tables built through the
	// ingester (hot encoding and all); they run last because each
	// keeps a ~10M-row table live while it runs. Differential tests in
	// internal/table pin the two ingest paths to byte-identical tables,
	// so the pair here measures cost, not correctness.
	const scale10M = 10_240_000
	const ingestDomain, ingestWidth = 65536, 170
	cases = append(cases,
		benchCase{fmt.Sprintf("IngestCSV/chunked/n=%d", scale10M), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := table.IngestCSV(workload.IngestCSVInput(scale10M, ingestDomain, ingestWidth), "T"); err != nil {
					b.Fatal(err)
				}
			}
		}, nil},
		benchCase{fmt.Sprintf("IngestCSV/buffered-seed/n=%d", scale10M), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := table.ReadCSVBuffered(workload.IngestCSVInput(scale10M, ingestDomain, ingestWidth), "T"); err != nil {
					b.Fatal(err)
				}
			}
		}, nil},
	)
	var scaleOnce sync.Once
	var chain10M, marriage10M *table.Table
	initScale10M := func() {
		scaleOnce.Do(func() {
			chain10M = ingestRoundTrip(workload.RandomWeightedTable(chainSC, scale10M, scale10M/10, 4, rand.New(rand.NewSource(31))))
			marriage10M = ingestRoundTrip(workload.MarriageSparseTable(chainSC, scale10M, 3, 3, rand.New(rand.NewSource(scale10M))))
		})
	}
	cases = append(cases,
		benchCase{fmt.Sprintf("OptSRepairScaling/chain/n=%d", scale10M), func(b *testing.B) {
			initScale10M()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srepair.OptSRepair(chainDS, chain10M); err != nil {
					b.Fatal(err)
				}
			}
		}, func() *solve.Snapshot {
			initScale10M()
			return optSRepairStats(chainDS, chain10M)()
		}},
		benchCase{fmt.Sprintf("OptSRepairScaling/marriage-sparse/n=%d", scale10M), func(b *testing.B) {
			initScale10M()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srepair.OptSRepair(marriageDS, marriage10M); err != nil {
					b.Fatal(err)
				}
			}
		}, func() *solve.Snapshot {
			initScale10M()
			return optSRepairStats(marriageDS, marriage10M)()
		}},
	)

	var out []benchResult
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		// One measurement is noisy at millisecond scale (GC phase,
		// pool warmth, the incremental cases' session-rebuild cadence
		// all swing a run ±25%); re-measure short cases and keep the
		// fastest run — the standard noise-robust estimator, since
		// slowdowns are one-sided. Cases whose single measurement
		// already runs multi-second (the 10M ingest and scaling
		// points) stay single-shot: their per-op times dwarf the
		// noise floor, and tripling them would dominate the wall.
		for extra := 0; extra < 2 && r.T < 5*time.Second; extra++ {
			r2 := testing.Benchmark(c.fn)
			if float64(r2.T.Nanoseconds())/float64(r2.N) < float64(r.T.Nanoseconds())/float64(r.N) {
				r = r2
			}
		}
		br := benchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if c.stats != nil {
			br.SolveStats = c.stats()
		}
		out = append(out, br)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// ingestRoundTrip rebuilds a generated table through WriteCSV →
// IngestCSV: same rows, IDs and weights, but with the streaming
// builder's dictionary encoding already published, so solves on the
// result start the way any ingested table's would.
func ingestRoundTrip(t *table.Table) *table.Table {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		panic(fmt.Sprintf("benchjson: round-trip write: %v", err))
	}
	rt, err := table.IngestCSV(&buf, t.Schema().Name())
	if err != nil {
		panic(fmt.Sprintf("benchjson: round-trip ingest: %v", err))
	}
	return rt
}

// optSRepairStats runs one untimed, instrumented solve on a fresh
// serial stats context, so the recorded snapshot describes exactly one
// solve of the case's instance rather than scaling with the timed
// loop's iteration count.
func optSRepairStats(ds *fd.Set, tab *table.Table) func() *solve.Snapshot {
	return func() *solve.Snapshot {
		st := new(solve.Stats)
		if _, err := srepair.OptSRepairCtx(solve.New(1, nil, st), ds, tab); err != nil {
			// Surface the failure rather than silently omitting the
			// stats field (the CI schema smoke would otherwise report a
			// misleading "no solve_stats").
			fmt.Fprintf(os.Stderr, "benchjson: stats solve failed for %v: %v\n", ds, err)
			return nil
		}
		snap := st.Snapshot()
		return &snap
	}
}

// uRepairStats is optSRepairStats for the Section-4 planner: one
// untimed, instrumented U-repair whose snapshot carries the planner's
// per-component decisions.
func uRepairStats(ds *fd.Set, tab *table.Table) func() *solve.Snapshot {
	return func() *solve.Snapshot {
		st := new(solve.Stats)
		if _, err := urepair.RepairCtx(solve.New(1, nil, st), ds, tab); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: stats urepair failed for %v: %v\n", ds, err)
			return nil
		}
		snap := st.Snapshot()
		return &snap
	}
}
