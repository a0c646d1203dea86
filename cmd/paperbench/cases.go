package main

import (
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

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

// benchCases is the case table, in the order BENCH_srepair.json lists
// it: the Figure-1 running example, the four hard sets of Table 1 under
// exact and 2-approximate vertex cover, OptSRepair scaling (Theorem
// 3.2), the U-repair planner, the constraint-extension engines, the
// matching engines, batches, resident sessions and out-of-core
// ingestion. Building the table builds no input: a case generates its
// tables on first use, through a getter shared with the cases that
// repair the same instance, and they stay live from then on.
func benchCases() []benchCase {
	chainSC := workload.TractableSets()["chain"].Schema()
	chainDS := fd.MustParseSet(chainSC, "A -> B", "A B -> C")
	marriageDS := fd.MustParseSet(chainSC, "A -> B", "B -> A", "B -> C")
	marriageSparse := func(n int) func() instance {
		return lazy(marriageDS, func() *table.Table {
			return workload.MarriageSparseTable(chainSC, n, 3, 3, seeded(int64(n)))
		})
	}

	cases := []benchCase{optSRepairCase("Fig1RunningExample/optsrepair", sync.OnceValue(func() instance {
		_, ds, t := workload.Office()
		return instance{ds, t}
	}))}
	hard := workload.HardSets()
	for _, name := range slices.Sorted(maps.Keys(hard)) {
		in := lazy(hard[name], func() *table.Table {
			return workload.RandomTable(hard[name].Schema(), 28, 3, seeded(2))
		})
		cases = append(cases, fdCase("Table1HardSets/"+name+"/exact", in, srepair.Exact, nil),
			fdCase("Table1HardSets/"+name+"/approx2", in, srepair.Approx2, nil))
	}

	planSC := schema.MustNew("R", "A", "B", "C", "D", "E", "F", "G", "H")
	plan := lazy(fd.MustParseSet(planSC, "A -> B", "B -> A", "C -> D", "C -> E", "F -> G", "H -> G"), func() *table.Table {
		return workload.RandomTable(planSC, 400, 9, seeded(400))
	})
	cases = append(cases,
		optSRepairCase("OptSRepairScaling/chain/n=1600", lazy(chainDS, func() *table.Table {
			return workload.RandomTable(chainSC, 1600, 162, seeded(1600))
		})),
		// Matching-dominated: one edge per observed block, the shape the
		// sparse matching engine targets.
		optSRepairCase("OptSRepairScaling/marriage/n=6400", lazy(marriageDS, func() *table.Table {
			return workload.RandomTable(chainSC, 6400, 642, seeded(6400))
		})),
		optSRepairCase("OptSRepairScaling/marriage-sparse/n=6400", marriageSparse(6400)),
		optSRepairCase("OptSRepairScaling/marriage-sparse/n=102400", marriageSparse(102400)),
		// U-repair planner over a multi-component FD set (key swap +
		// common-lhs + approximation): the solve_stats record the
		// planner's per-component decisions.
		fdCase("URepairPlanner/multi-component/n=400", plan, urepair.Repair, urepair.RepairCtx),
	)

	// Constraint-extension engines. Seed sizes sit where the seed
	// oracles still finish in seconds; the seed CQA enumerator is bounded
	// at 64 tuples, the encoded one at 64 per conflict component.
	extSV := fdrepair.NewSolver()
	cfdSC := schema.MustNew("C", "P", "K", "V")
	cfdEmb := fd.MustParseSet(cfdSC, "P K -> V").FDs()[0]
	// A wildcard CFD and one with a constant rhs: the grouped conflict
	// scan and the forced (unary-violation) path.
	cfds := []*cfd.CFD{
		must(cfd.New(cfdSC, cfdEmb, []table.Value{"p0", cfd.Wildcard}, cfd.Wildcard)),
		must(cfd.New(cfdSC, cfdEmb, []table.Value{"p1", cfd.Wildcard}, "v0")),
	}
	cases = append(cases, constraintClass("cfd", 3200,
		func() *table.Table { return workload.CFDTable(cfdSC, 3200, 4, 3, 2, seeded(3200)) },
		func() *table.Table { return workload.CFDTable(cfdSC, 102400, 4, 3, 2, seeded(102400)) },
		func(t *table.Table) error { return errOf(cfd.Approx2SRepair(cfds, t)) },
		func(t *table.Table) error { return errOf(extSV.ApproxCFDSRepair(cfds, t)) },
		func(c *solve.Ctx, t *table.Table) error { return errOf(cfd.Approx2SRepairCtx(c, cfds, t)) })...)

	denSC := schema.MustNew("S", "dept", "rank", "salary")
	dcs := []*denial.Constraint{must(denial.Parse(denSC, "t1.dept = t2.dept & t1.rank < t2.rank & t1.salary > t2.salary"))}
	cases = append(cases, constraintClass("denial", 1600,
		func() *table.Table { return workload.RankedTable(denSC, 1600, 4, 40, seeded(1600)) },
		func() *table.Table { return workload.RankedTable(denSC, 102400, 4, 40, seeded(102400)) },
		func(t *table.Table) error { return errOf(denial.Approx2SRepair(dcs, t)) },
		func(t *table.Table) error { _, _, err := extSV.ApproxDenialSRepair(dcs, t); return err },
		func(c *solve.Ctx, t *table.Table) error { return errOf(denial.Approx2SRepairCtx(c, dcs, t)) })...)

	blockSC := schema.MustNew("Q", "K", "V")
	blockDS := fd.MustParseSet(blockSC, "K -> V")
	blocks := func(n, rows int, seed int64) *table.Table {
		return workload.SmallComponentTable(blockSC, n, rows, 2, seeded(seed))
	}
	// Projecting the block key makes every certain-answer set nonempty:
	// each conflict component keeps at least one tuple in every repair,
	// so each block key survives everywhere.
	blockQ := must(cqa.NewQuery(blockSC, must(blockSC.Set("K"))))
	cases = append(cases, constraintClass("cqa", 48,
		func() *table.Table { return blocks(48, 2, 48) },
		func() *table.Table { return blocks(102400, 3, 102400) },
		func(t *table.Table) error { return errOf(cqa.ConsistentAnswers(blockDS, t, blockQ)) },
		func(t *table.Table) error { return errOf(extSV.ConsistentAnswers(blockDS, t, blockQ)) },
		func(c *solve.Ctx, t *table.Table) error {
			return errOf(cqa.ConsistentAnswersCtx(c, blockDS, t, blockQ))
		})...)

	type prioIn struct {
		tab *table.Table
		rel *priority.Relation
	}
	prio := func(n int, seed int64) func() prioIn {
		return func() prioIn {
			in := prioIn{blocks(n, 3, seed), priority.NewRelation()}
			for _, p := range workload.PriorityPairs(in.tab.ConflictGraph(blockDS), 0.7, seeded(11)) {
				in.rel.Add(p[0], p[1])
			}
			return in
		}
	}
	cases = append(cases, constraintClass("priority", 1600, prio(1600, 1600), prio(102400, 7),
		func(x prioIn) error { return errOf(priority.CRepair(blockDS, x.tab, x.rel)) },
		func(x prioIn) error { return errOf(extSV.PrioritizedRepair(blockDS, x.tab, x.rel)) },
		func(c *solve.Ctx, x prioIn) error { return errOf(priority.CRepairCtx(c, blockDS, x.tab, x.rel)) })...)

	// Matching engines head to head on one sparse instance (~4 edges per
	// left node), generated like bench_test's MatchingScaling: O(n³) on
	// the padded matrix against O(V·E·log V) on the real edges.
	const matchN = 480
	type matching struct {
		edges  []graph.Edge
		weight func(i, j int) float64
	}
	match := sync.OnceValue(func() matching {
		edges, weight := workload.SparseMatchingInstance(matchN, 4, 1000, seeded(17+matchN))
		return matching{edges, weight}
	})
	cases = append(cases,
		benchCase{name: "MatchingScaling/hungarian/n=480", bench: timed(match, func(m matching) error {
			_, _, err := graph.MaxWeightBipartiteMatching(matchN, matchN, m.weight)
			return err
		})},
		benchCase{name: "MatchingScaling/sparse/n=480", bench: timed(match, func(m matching) error {
			sm, err := graph.NewSparseMatcher(matchN, matchN, m.edges)
			if err != nil {
				return err
			}
			return errOf(sm.Solve())
		})},
	)

	// Mixed-size batch: interleaved n=100 and n=102400 tables as one
	// SolveBatch, the request-serving shape the batch entry point exists
	// for. small-after-large times a small solve on a Solver that has
	// already repaired the 102400-row table: its B/op must track the
	// small table (TestBenchJSONSchema asserts the ratio). Every run gets
	// a fresh Solver, built off the clock; the stats solve merges its
	// WithStats Solver's counters.
	type batchIn struct {
		sv           *fdrepair.Solver
		small, large *table.Table
		reqs         []fdrepair.Request
	}
	batchTabs := sync.OnceValue(func() batchIn {
		in := batchIn{
			small: workload.MarriageSparseTable(chainSC, 100, 3, 3, seeded(100)),
			large: workload.MarriageSparseTable(chainSC, 102400, 3, 3, seeded(102400)),
		}
		for i := range 10 {
			in.reqs = append(in.reqs, fdrepair.Request{FDs: marriageDS, Table: in.small})
			if i == 2 || i == 7 {
				in.reqs[i].Table = in.large
			}
		}
		return in
	})
	batch := func(opts ...fdrepair.SolverOption) func() batchIn {
		return func() batchIn {
			in := batchTabs()
			in.sv = fdrepair.NewSolver(opts...)
			return in
		}
	}
	solveBatch := func(in batchIn) error {
		for _, res := range in.sv.SolveBatch(in.reqs) {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	}
	solveSmall := func(in batchIn) error { _, _, err := in.sv.OptimalSRepair(marriageDS, in.small); return err }
	cases = append(cases,
		benchCase{name: "SolveBatch/mixed-size/interleaved-8x100+2x102400", bench: timed(batch(), solveBatch),
			stats: func(c *solve.Ctx) error {
				in := batch(fdrepair.WithStats())()
				err := solveBatch(in)
				c.Stats().Merge(in.sv.Stats())
				return err
			}},
		benchCase{name: "SolveBatch/small-solo/n=100", bench: timed(batch(), solveSmall)},
		benchCase{name: "SolveBatch/small-after-large/n=100", bench: func(b *testing.B) {
			in := batch()()
			if _, _, err := in.sv.OptimalSRepair(marriageDS, in.large); err != nil {
				b.Fatal(err)
			}
			timed(func() batchIn { return in }, solveSmall)(b)
		}},
	)

	// Resident-session incremental repair: append 1% duplicate-shaped
	// rows or touch 0.1% of cells, then re-repair through
	// fdrepair.Session, which re-solves only the dirty blocks. The
	// append-1%-resolve controls run the same appends through the plain
	// table mutators and re-solve from scratch, what a caller without a
	// session pays; TestBenchJSONSchema holds each session case to 1/3
	// of its control.
	chainBig := lazy(chainDS, func() *table.Table {
		return workload.RandomWeightedTable(chainSC, 102400, 10240, 4, seeded(31))
	})
	marriageBig := marriageSparse(102400)
	touch := touchCells()
	cases = append(cases,
		optSRepairCase("OptSRepairScaling/chain/n=102400", chainBig),
		coldResolveCase("OptSRepairScaling/append-1%-resolve/chain/n=102400", chainBig),
		coldResolveCase("OptSRepairScaling/append-1%-resolve/marriage-sparse/n=102400", marriageBig),
		sessionCase("IncrementalRepair/append-1%/chain/n=102400", chainBig, appendRows),
		sessionCase("IncrementalRepair/touch-0.1%-cells/chain/n=102400", chainBig, touch),
		sessionCase("IncrementalRepair/append-1%/marriage-sparse/n=102400", marriageBig, appendRows),
		sessionCase("IncrementalRepair/touch-0.1%-cells/marriage-sparse/n=102400", marriageBig, touch),
	)

	// Out-of-core ingestion at 10M rows: the chunked and buffered-seed
	// readers consume byte-identical streams, so their bytes_per_op ratio
	// is what the chunked path saves (the seed path also keeps one Go
	// string per cell). The scaling points solve tables built through
	// the ingester; they run last because each keeps ~10M rows live.
	const scale10M = 10_240_000
	ingest := func(read func(io.Reader, string) (*table.Table, error)) func(b *testing.B) {
		return timed(func() int { return scale10M }, func(n int) error {
			return errOf(read(workload.IngestCSVInput(n, 65536, 170), "T"))
		})
	}
	return append(cases,
		benchCase{name: fmt.Sprintf("IngestCSV/chunked/n=%d", scale10M), bench: ingest(table.IngestCSV)},
		benchCase{name: fmt.Sprintf("IngestCSV/buffered-seed/n=%d", scale10M), bench: ingest(table.ReadCSVBuffered)},
		optSRepairCase(fmt.Sprintf("OptSRepairScaling/chain/n=%d", scale10M), lazy(chainDS, func() *table.Table {
			return ingestRoundTrip(workload.RandomWeightedTable(chainSC, scale10M, scale10M/10, 4, seeded(31)))
		})),
		optSRepairCase(fmt.Sprintf("OptSRepairScaling/marriage-sparse/n=%d", scale10M), lazy(marriageDS, func() *table.Table {
			return ingestRoundTrip(workload.MarriageSparseTable(chainSC, scale10M, 3, 3, seeded(scale10M)))
		})),
	)
}

func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// lazy returns the getter of ds's instance over the table gen
// generates on the first call.
func lazy(ds *fd.Set, gen func() *table.Table) func() instance {
	return sync.OnceValue(func() instance { return instance{ds, gen()} })
}

// fdCase times repair on an instance; when probe is set, the case's
// solve_stats are one probe solve of the instance.
func fdCase[R any](name string, in func() instance, repair func(*fd.Set, *table.Table) (R, error), probe func(*solve.Ctx, *fd.Set, *table.Table) (R, error)) benchCase {
	bc := benchCase{name: name, bench: timed(in, func(x instance) error { return errOf(repair(x.ds, x.tab)) })}
	if probe != nil {
		bc.stats = func(c *solve.Ctx) error { x := in(); return errOf(probe(c, x.ds, x.tab)) }
	}
	return bc
}

func optSRepairCase(name string, in func() instance) benchCase {
	return fdCase(name, in, srepair.OptSRepair, srepair.OptSRepairCtx)
}

// constraintClass is one constraint-extension class: the seed oracle
// and the encoded engine on the same n-row instance (small generates
// it, once), then the encoded engine at n=102400 (big). The encoded
// cases time the call through fdrepair's Solver and take their
// solve_stats from the engine's Ctx entry point (probe).
func constraintClass[In any](class string, n int, small, big func() In, seed, encoded func(In) error, probe func(*solve.Ctx, In) error) []benchCase {
	name := func(kind string, n int) string { return fmt.Sprintf("ConstraintExtScaling/%s/%s/n=%d", class, kind, n) }
	small, big = sync.OnceValue(small), sync.OnceValue(big)
	stats := func(in func() In) func(*solve.Ctx) error {
		return func(c *solve.Ctx) error { return probe(c, in()) }
	}
	return []benchCase{
		{name: name("seed-oracle", n), bench: timed(small, seed)},
		{name: name("encoded", n), bench: timed(small, encoded), stats: stats(small)},
		{name: name("encoded", 102400), bench: timed(big, encoded), stats: stats(big)},
	}
}

// sessionCase times one mutation batch plus one Session.Repair per
// iteration on a Solver that lives for the whole run.
func sessionCase(name string, in func() instance, mutate func(*fdrepair.Session, *rand.Rand) error) benchCase {
	return benchCase{name: name, bench: func(b *testing.B) {
		sv := fdrepair.NewSolver()
		rounds(b, in, func(x instance, tab *table.Table) (s *fdrepair.Session, err error) {
			if s, err = fdrepair.NewSession(sv, x.ds, tab); err == nil {
				_, _, err = s.Repair() // warm the block cache
			}
			return s, err
		}, func(s *fdrepair.Session, rng *rand.Rand) error {
			if err := mutate(s, rng); err != nil {
				return err
			}
			_, _, err := s.Repair()
			return err
		})
	}}
}

// coldResolveCase is sessionCase's sessionless control for the 1%
// append: the same mutation through Table.AppendRows, then a
// from-scratch OptSRepair.
func coldResolveCase(name string, in func() instance) benchCase {
	bc := optSRepairCase(name, in)
	bc.bench = func(b *testing.B) {
		rounds(b, in, func(x instance, tab *table.Table) (instance, error) { return instance{x.ds, tab}, nil },
			func(cur instance, rng *rand.Rand) error {
				if _, err := cur.tab.AppendRows(copiesOf(cur.tab.Rows(), rng)); err != nil {
					return err
				}
				return errOf(srepair.OptSRepair(cur.ds, cur.tab))
			})
	}
	return bc
}

// rounds is the loop of the session and cold-resolve cases. Every 8
// iterations, off the clock, rebuild makes the state afresh from a
// clone of the instance's table (so it never drifts far from its named
// size) and the setup garbage is collected, so background marking does
// not bleed into the timed window; each iteration runs step once.
func rounds[S any](b *testing.B, in func() instance, rebuild func(instance, *table.Table) (S, error), step func(S, *rand.Rand) error) {
	x := in()
	rng := seeded(9)
	var state S
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			b.StopTimer()
			var err error
			if state, err = rebuild(x, x.tab.Clone()); err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.StartTimer()
		}
		if err := step(state, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// copiesOf draws 1% of rows (at least one) at random, with their
// weights: the rows the append cases add.
func copiesOf(rows []table.Row, rng *rand.Rand) ([]table.Tuple, []float64) {
	k := max(len(rows)/100, 1)
	tuples := make([]table.Tuple, k)
	weights := make([]float64, k)
	for i := range tuples {
		src := rows[rng.Intn(len(rows))]
		tuples[i], weights[i] = src.Tuple, src.Weight
	}
	return tuples, weights
}

func appendRows(s *fdrepair.Session, rng *rand.Rand) error {
	_, err := s.AppendRows(copiesOf(s.Table().Rows(), rng))
	return err
}

// touchCells returns the 0.1%-of-cells correction: each touched cell
// gets a value the table has never seen (a typo fix). Fresh values
// keep the sparse block shape across rounds, where copying values
// between rows would merge blocks into giant matching components.
func touchCells() func(*fdrepair.Session, *rand.Rand) error {
	seq := 0
	return func(s *fdrepair.Session, rng *rand.Rand) error {
		rows := s.Table().Rows()
		arity := s.Table().Schema().Arity()
		updates := make([]table.CellUpdate, max(len(rows)*arity/1000, 1))
		for i := range updates {
			seq++
			updates[i] = table.CellUpdate{
				ID:   rows[rng.Intn(len(rows))].ID,
				Attr: rng.Intn(arity),
				Val:  fmt.Sprintf("fix-%d", seq),
			}
		}
		return s.SetCells(updates)
	}
}
