package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/solve"
)

// BenchmarkCases runs the case table behind -benchjson, one
// sub-benchmark per case, so a case or class can be timed alone with
// the code that writes BENCH_srepair.json:
//
//	go test -run '^$' -bench 'Cases/ConstraintExtScaling/priority' ./cmd/paperbench
func BenchmarkCases(b *testing.B) {
	for _, c := range benchCases() {
		b.Run(c.name, c.bench)
	}
}

// TestBenchJSONSchema is the CI smoke for the -benchjson artifact: the
// snapshot must list exactly the case table's names, in table order,
// parse into benchResult, and the OptSRepair cases must carry the
// per-solve stats record the Solver refactor added (recursion nodes,
// block fan-out, matcher dispatches, arena reuse). By default it checks
// the snapshot committed at the repo root; CI points BENCH_JSON at the
// freshly generated file to guard the generator itself.
func TestBenchJSONSchema(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		path = "../../BENCH_srepair.json"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	var results []benchResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("%s does not parse as []benchResult: %v", path, err)
	}
	// A case added without a measurement, or a retired case left in the
	// file, fails here. Building the table generates no input.
	var got, want []string
	for _, r := range results {
		got = append(got, r.Name)
	}
	for _, c := range benchCases() {
		want = append(want, c.name)
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s does not list the case table's %d names in order; from entry %d on:\n file  %q\n table %q",
			path, len(want), i, got[i:], want[i:])
	}
	byName := make(map[string]benchResult, len(results))
	for _, r := range results {
		if r.Name == "" || r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Fatalf("malformed entry %+v", r)
		}
		byName[r.Name] = r
	}
	// The scaling point unlocked by batched workload generation.
	large, ok := byName["OptSRepairScaling/marriage-sparse/n=102400"]
	if !ok {
		t.Fatal("missing OptSRepairScaling/marriage-sparse/n=102400")
	}
	// The mixed-size batch workload added with per-request solve scopes
	// must be present, carry aggregate solve stats, and prove the
	// sticky-hints fix in the snapshot itself: a small solve on a
	// Solver that already repaired the 102400-row table must allocate
	// like a small solve, not like the large one (pre-fix, cold scratch
	// was pre-sized at the sticky 102400-row hint).
	batch, ok := byName["SolveBatch/mixed-size/interleaved-8x100+2x102400"]
	if !ok {
		t.Fatal("missing SolveBatch/mixed-size/interleaved-8x100+2x102400")
	}
	if batch.SolveStats == nil || batch.SolveStats.Nodes <= 0 {
		t.Fatalf("mixed-size batch case has no solve_stats: %+v", batch.SolveStats)
	}
	smallAfterLarge, ok := byName["SolveBatch/small-after-large/n=100"]
	if !ok {
		t.Fatal("missing SolveBatch/small-after-large/n=100")
	}
	if _, ok := byName["SolveBatch/small-solo/n=100"]; !ok {
		t.Fatal("missing SolveBatch/small-solo/n=100")
	}
	if large.BytesPerOp > 0 && smallAfterLarge.BytesPerOp > large.BytesPerOp/10 {
		t.Fatalf("small solve after a 102400-row solve allocates %d B/op (large case: %d B/op): sticky-hints bloat",
			smallAfterLarge.BytesPerOp, large.BytesPerOp)
	}
	// The resident-session cases added with incremental dirty-block
	// repair: each mutate-then-re-repair point must beat its sessionless
	// control by at least 3× (the feature's reason to exist). The
	// control runs the identical mutation stream through the plain
	// table mutators — which invalidate the cached encoding — and
	// re-solves from scratch each round, so the pair compares what the
	// same workload costs with and without a resident session. (The
	// bar was 5× when the control was slower; the dense counting-sort
	// group-by that landed with out-of-core ingestion sped the cold
	// from-scratch control ~25-30%, so the competitive ratio is
	// recalibrated, not the feature regressed.)
	if _, ok := byName["OptSRepairScaling/chain/n=102400"]; !ok {
		t.Fatal("missing OptSRepairScaling/chain/n=102400")
	}
	chainCold, ok := byName["OptSRepairScaling/append-1%-resolve/chain/n=102400"]
	if !ok {
		t.Fatal("missing OptSRepairScaling/append-1%-resolve/chain/n=102400")
	}
	marriageCold, ok := byName["OptSRepairScaling/append-1%-resolve/marriage-sparse/n=102400"]
	if !ok {
		t.Fatal("missing OptSRepairScaling/append-1%-resolve/marriage-sparse/n=102400")
	}
	for _, tc := range []struct {
		inc  string
		cold benchResult
	}{
		{"IncrementalRepair/append-1%/chain/n=102400", chainCold},
		{"IncrementalRepair/touch-0.1%-cells/chain/n=102400", chainCold},
		{"IncrementalRepair/append-1%/marriage-sparse/n=102400", marriageCold},
		{"IncrementalRepair/touch-0.1%-cells/marriage-sparse/n=102400", marriageCold},
	} {
		inc, ok := byName[tc.inc]
		if !ok {
			t.Fatalf("missing %s", tc.inc)
		}
		if inc.NsPerOp > tc.cold.NsPerOp/3 {
			t.Fatalf("%s = %.0f ns/op, over 1/3 of the cold solve (%s = %.0f ns/op): incremental repair not incremental",
				tc.inc, inc.NsPerOp, tc.cold.Name, tc.cold.NsPerOp)
		}
	}
	// The out-of-core ingestion cases: the chunked streaming path must
	// report under 1/4 of the buffered seed path's allocations on the
	// same 10M-row stream (the tentpole's acceptance ratio), and the
	// scaling suite must reach the ROADMAP's n ≥ 10M point (its
	// solve_stats are checked by the statsCases loop below, which
	// matches every OptSRepairScaling name).
	chunked, ok := byName["IngestCSV/chunked/n=10240000"]
	if !ok {
		t.Fatal("missing IngestCSV/chunked/n=10240000")
	}
	buffered, ok := byName["IngestCSV/buffered-seed/n=10240000"]
	if !ok {
		t.Fatal("missing IngestCSV/buffered-seed/n=10240000")
	}
	if chunked.BytesPerOp <= 0 || buffered.BytesPerOp <= 0 {
		t.Fatalf("ingest cases carry no allocation data: chunked=%d buffered=%d",
			chunked.BytesPerOp, buffered.BytesPerOp)
	}
	if chunked.BytesPerOp > buffered.BytesPerOp/4 {
		t.Fatalf("chunked ingest allocates %d B/op, over 1/4 of the buffered seed path (%d B/op)",
			chunked.BytesPerOp, buffered.BytesPerOp)
	}
	for _, name := range []string{
		"OptSRepairScaling/chain/n=10240000",
		"OptSRepairScaling/marriage-sparse/n=10240000",
	} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing %s", name)
		}
	}
	// The constraint-extension port: every class must carry a seed-oracle
	// point, an encoded point on the same instance, and an encoded
	// 102400-row scaling point whose solve_stats record the class's own
	// counter (proof the run went through the encoded engine, not the
	// seed fallback). The port's acceptance ratio: at least two of the
	// four classes must run ≥3× faster encoded than seed on the matched
	// instance.
	fast := 0
	for _, c := range []struct {
		class   string
		seedN   string
		counter func(s *solve.Snapshot) int64
	}{
		{"cfd", "n=3200", func(s *solve.Snapshot) int64 { return s.CFDPatterns }},
		{"denial", "n=1600", func(s *solve.Snapshot) int64 { return s.DenialPredicates }},
		{"cqa", "n=48", func(s *solve.Snapshot) int64 { return s.CQACertain }},
		{"priority", "n=1600", func(s *solve.Snapshot) int64 { return s.PriorityLevels }},
	} {
		seed, ok := byName["ConstraintExtScaling/"+c.class+"/seed-oracle/"+c.seedN]
		if !ok {
			t.Fatalf("missing ConstraintExtScaling/%s/seed-oracle/%s", c.class, c.seedN)
		}
		enc, ok := byName["ConstraintExtScaling/"+c.class+"/encoded/"+c.seedN]
		if !ok {
			t.Fatalf("missing ConstraintExtScaling/%s/encoded/%s", c.class, c.seedN)
		}
		big, ok := byName["ConstraintExtScaling/"+c.class+"/encoded/n=102400"]
		if !ok {
			t.Fatalf("missing ConstraintExtScaling/%s/encoded/n=102400", c.class)
		}
		for _, r := range []benchResult{enc, big} {
			if r.SolveStats == nil {
				t.Fatalf("%s has no solve_stats", r.Name)
			}
			if c.counter(r.SolveStats) <= 0 {
				t.Fatalf("%s solve_stats do not record the %s counter: %+v",
					r.Name, c.class, r.SolveStats)
			}
		}
		if enc.NsPerOp <= seed.NsPerOp/3 {
			fast++
		}
	}
	if fast < 2 {
		t.Fatalf("only %d of 4 constraint-extension classes run ≥3× faster encoded than seed", fast)
	}

	// The planner case added with the work-stealing scheduler must
	// carry the per-component decision counters.
	plan, ok := byName["URepairPlanner/multi-component/n=400"]
	if !ok {
		t.Fatal("missing URepairPlanner/multi-component/n=400")
	}
	if plan.SolveStats == nil {
		t.Fatal("URepairPlanner case has no solve_stats")
	}
	if plan.SolveStats.PlannerComponents <= 0 {
		t.Fatalf("URepairPlanner solve_stats records no components: %+v", plan.SolveStats)
	}
	if got := plan.SolveStats.PlannerTrivial + plan.SolveStats.PlannerKeySwap +
		plan.SolveStats.PlannerCommonLHS + plan.SolveStats.PlannerApprox; got != plan.SolveStats.PlannerComponents {
		t.Fatalf("URepairPlanner decisions (%d) don't cover components (%d): %+v",
			got, plan.SolveStats.PlannerComponents, plan.SolveStats)
	}
	statsCases := 0
	for name, r := range byName {
		if !strings.Contains(name, "optsrepair") && !strings.Contains(name, "OptSRepairScaling") {
			continue
		}
		statsCases++
		st := r.SolveStats
		if st == nil {
			t.Fatalf("%s has no solve_stats", name)
		}
		if st.Nodes <= 0 {
			t.Fatalf("%s: solve_stats.nodes = %d", name, st.Nodes)
		}
		if st.BlocksSerial+st.BlocksParallel <= 0 {
			t.Fatalf("%s: no blocks recorded: %+v", name, st)
		}
		if strings.Contains(name, "marriage") &&
			st.MatcherFastPath+st.MatcherDense+st.MatcherSparse == 0 {
			t.Fatalf("%s: marriage case recorded no matcher dispatches: %+v", name, st)
		}
	}
	if statsCases < 4 {
		t.Fatalf("only %d stats-carrying cases found", statsCases)
	}
}
