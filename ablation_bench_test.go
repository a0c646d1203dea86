// Ablation benchmarks for three design choices of the repair engine:
// the Hungarian matching inside MarriageRep, the Bar-Yehuda–Even vertex
// cover behind the 2-approximation, and the combined U-repair
// approximation of Section 4.4. Quality deltas are emitted as custom
// benchmark metrics so `go test -bench=Ablation` doubles as a quality
// report.
package repro_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fd"
	"repro/internal/graph"
	"repro/internal/schema"
	"repro/internal/srepair"
	"repro/internal/table"
	"repro/internal/urepair"
	"repro/internal/workload"
)

// BenchmarkAblationMatching compares the optimal Hungarian matching
// with the greedy maximal matching on random weighted bipartite graphs.
// greedy-loss reports the mean fraction of matched weight the greedy
// variant forfeits — the price OptSRepair's marriage case would pay.
func BenchmarkAblationMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(301))
	const n = 24
	instances := make([][][]float64, 16)
	for t := range instances {
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				if rng.Float64() < 0.4 {
					w[i][j] = math.Inf(-1)
				} else {
					w[i][j] = float64(1 + rng.Intn(100))
				}
			}
		}
		instances[t] = w
	}
	edgeLists := make([][]graph.Edge, len(instances))
	for t, w := range instances {
		w := w
		edgeLists[t] = graph.EdgesOf(n, n, func(x, y int) float64 { return w[x][y] })
	}
	b.Run("hungarian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := instances[i%len(instances)]
			weight := func(x, y int) float64 { return w[x][y] }
			_, total, err := graph.MaxWeightBipartiteMatching(n, n, weight)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = total
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sm, err := graph.NewSparseMatcher(n, n, edgeLists[i%len(edgeLists)])
			if err != nil {
				b.Fatal(err)
			}
			res, err := sm.Solve()
			if err != nil {
				b.Fatal(err)
			}
			benchSink = res.Total
		}
	})
	b.Run("greedy", func(b *testing.B) {
		var loss, trials float64
		for i := 0; i < b.N; i++ {
			w := instances[i%len(instances)]
			weight := func(x, y int) float64 { return w[x][y] }
			_, opt, err := graph.MaxWeightBipartiteMatching(n, n, weight)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			_ = opt
			b.StartTimer()
			_, greedy := graph.GreedyMatching(n, n, edgeLists[i%len(edgeLists)])
			if opt > 0 {
				loss += 1 - greedy/opt
				trials++
			}
			benchSink = greedy
		}
		if trials > 0 {
			b.ReportMetric(loss/trials, "greedy-loss")
		}
	})
}

// BenchmarkAblationVertexCover compares the three cover strategies
// behind the S-repair approximations on random weighted graphs,
// reporting the mean cost ratio to the exact optimum.
func BenchmarkAblationVertexCover(b *testing.B) {
	rng := rand.New(rand.NewSource(303))
	type inst struct {
		g   *graph.Graph
		opt float64
	}
	var instances []inst
	for t := 0; t < 12; t++ {
		n := 14 + rng.Intn(6)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 1 + float64(rng.Intn(9))
		}
		g := graph.MustNewGraph(weights)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(i, j)
				}
			}
		}
		cover, err := g.ExactMinVertexCover()
		if err != nil {
			b.Fatal(err)
		}
		instances = append(instances, inst{g, g.CoverWeight(cover)})
	}
	run := func(b *testing.B, solve func(*graph.Graph) map[int]bool) {
		var ratio, trials float64
		for i := 0; i < b.N; i++ {
			in := instances[i%len(instances)]
			cover := solve(in.g)
			if !in.g.IsVertexCover(cover) {
				b.Fatal("not a cover")
			}
			if in.opt > 0 {
				ratio += in.g.CoverWeight(cover) / in.opt
				trials++
			}
			benchSink = cover
		}
		if trials > 0 {
			b.ReportMetric(ratio/trials, "cost-ratio")
		}
	}
	b.Run("bar-yehuda-even", func(b *testing.B) { run(b, (*graph.Graph).ApproxVertexCoverBE) })
	b.Run("greedy", func(b *testing.B) { run(b, (*graph.Graph).GreedyVertexCover) })
	b.Run("exact", func(b *testing.B) {
		run(b, func(g *graph.Graph) map[int]bool {
			c, err := g.ExactMinVertexCover()
			if err != nil {
				b.Fatal(err)
			}
			return c
		})
	})
}

// BenchmarkAblationCombinedURepair compares the two U-repair
// approximations of Section 4.4 and their combination on a hard FD set,
// reporting mean costs; kl-win-rate is the fraction of instances where
// the KL-style heuristic beat the 2·mlc construction (the paper's
// argument for running both).
func BenchmarkAblationCombinedURepair(b *testing.B) {
	sc := schema.MustNew("R", "A", "B", "C")
	ds := fd.MustParseSet(sc, "A -> B", "B -> C")
	rng := rand.New(rand.NewSource(305))
	var tables []*table.Table
	for t := 0; t < 12; t++ {
		tables = append(tables, workload.RandomTable(sc, 60, 4, rng))
	}
	b.Run("2mlc", func(b *testing.B) {
		var cost, trials float64
		for i := 0; i < b.N; i++ {
			tab := tables[i%len(tables)]
			u, _ := urepair.Approx2MLC(ds, tab)
			cost += table.DistUpd(u, tab)
			trials++
			benchSink = u
		}
		b.ReportMetric(cost/trials, "mean-cost")
	})
	b.Run("kl-heuristic", func(b *testing.B) {
		var cost, trials float64
		for i := 0; i < b.N; i++ {
			tab := tables[i%len(tables)]
			u, ok := urepair.KLHeuristic(ds, tab)
			if !ok {
				b.Fatal("heuristic refused")
			}
			cost += table.DistUpd(u, tab)
			trials++
			benchSink = u
		}
		b.ReportMetric(cost/trials, "mean-cost")
	})
	b.Run("combined", func(b *testing.B) {
		var cost, klWins, trials float64
		for i := 0; i < b.N; i++ {
			tab := tables[i%len(tables)]
			res, err := urepair.Repair(ds, tab)
			if err != nil {
				b.Fatal(err)
			}
			u1, _ := urepair.Approx2MLC(ds, tab)
			if table.WeightLess(res.Cost, table.DistUpd(u1, tab)) {
				klWins++
			}
			cost += res.Cost
			trials++
			benchSink = res
		}
		b.ReportMetric(cost/trials, "mean-cost")
		b.ReportMetric(klWins/trials, "kl-win-rate")
	})
}

// BenchmarkAblationExactVsOptSRepair quantifies why the dichotomy
// matters operationally: on a tractable set, Algorithm 1 vs the
// exponential vertex-cover baseline, as the table grows.
func BenchmarkAblationExactVsOptSRepair(b *testing.B) {
	sc := schema.MustNew("R", "A", "B", "C")
	ds := fd.MustParseSet(sc, "A -> B", "A B -> C")
	for _, n := range []int{20, 40, 80} {
		tab := workload.RandomTable(sc, n, 3, rand.New(rand.NewSource(int64(n))))
		b.Run(benchName("optsrepair", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := srepair.OptSRepair(ds, tab)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = s
			}
		})
		b.Run(benchName("exact-vc", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := srepair.Exact(ds, tab)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = s
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "/n=" + itoa(n)
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
