package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// perLayerMetrics names every per-layer metric with its unit, in the
// order BENCHMARK.json lists them. A layer a workload does not reach
// reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"fdrepaird.overhead_ms", "ms"},
	{"fdrepaird.shed_ratio", "ratio"},
	{"fdrepaird.degraded_ratio", "ratio"},
	{"fdrepaird.ingest_bytes_per_op", "B"},
	{"spec.parse_ms", "ms"},
	{"table.ingest_ms", "ms"},
	{"table.ingest_mb_per_s", "MB/s"},
	{"table.ingest_alloc_kb_per_row", "KB"},
	{"table.write_csv_ms", "ms"},
	{"table.mutate_ms", "ms"},
	{"srepair.solve_ms", "ms"},
	{"srepair.nodes", "count"},
	{"graph.matcher_sparse", "count"},
	{"graph.matcher_fast_path", "count"},
	{"graph.matcher_dense", "count"},
	{"solve.parallel_block_share", "ratio"},
	{"solve.task_steals", "count"},
	{"solve.tasks_inlined", "count"},
	{"solve.arena_hit_ratio", "ratio"},
	{"solve.cores_used", "cores"},
	{"urepair.solve_ms", "ms"},
	{"urepair.planner_components", "count"},
	{"mpd.solve_ms", "ms"},
	{"cfd.solve_ms", "ms"},
	{"cfd.patterns", "count"},
	{"denial.solve_ms", "ms"},
	{"denial.predicates", "count"},
	{"cqa.solve_ms", "ms"},
	{"cqa.certain", "count"},
	{"priority.solve_ms", "ms"},
	{"priority.levels", "count"},
	{"session.repair_ms", "ms"},
	{"session.block_reuse_ratio", "ratio"},
	{"session.full_solve_ratio", "ratio"},
	{"session.blocks_solved", "count"},
	{"trace.ops_per_s_ratio", "ratio"},
	{"trace.self_time_coverage", "ratio"},
}

// perLayer derives the per-layer metrics of a traced loop from its
// spans and counter deltas. Counts are per op; *_ms are mean self time
// per call of that layer.
func perLayer(name string, lr *loopResult, tr *tracer, untracedOpsPerS float64, stderr io.Writer) map[string]metric {
	ops := float64(len(lr.ops))
	raw := func(k string) float64 { return float64(lr.raw[k]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{}
	tot := tr.totals()
	for layer, lt := range tot {
		v[layer+"_ms"] = ratio(float64(lt.self)/1e6, float64(lt.calls))
	}
	if in := tot["table.ingest"]; in != nil {
		v["table.ingest_mb_per_s"] = ratio(float64(in.bytes)/(1<<20), in.self.Seconds())
		v["table.ingest_alloc_kb_per_row"] = ratio(float64(in.alloc)/1024, float64(in.rows))
	}
	var solveCPU, solveWall time.Duration
	for layer, lt := range tot {
		if strings.HasSuffix(layer, ".solve") || layer == "session.repair" {
			solveCPU += lt.cpu
			solveWall += lt.wall
		}
	}
	v["solve.cores_used"] = ratio(float64(solveCPU), float64(solveWall))

	// Each op is one root span; serve-mixed additionally replays the
	// request in process under a "replay" root, and the rest of the
	// round trip is the daemon's own overhead.
	root := tot["op"]
	if rp := tot["replay"]; rp != nil {
		v["fdrepaird.overhead_ms"] = ratio(float64(root.wall-rp.wall)/1e6, float64(root.calls))
		root = rp
	}
	v["trace.self_time_coverage"] = ratio(float64(root.childWall), float64(root.wall))
	if name != "serve-mixed" && v["trace.self_time_coverage"] < 0.9 {
		fmt.Fprintf(stderr, "perfbench: warning: layer self times cover %.1f%% of traced op latency (want ≥ 90%%)\n", 100*v["trace.self_time_coverage"])
	}
	v["trace.ops_per_s_ratio"] = ratio(lr.opsPerS(), untracedOpsPerS)

	shed := raw("fdrepaird.requests.shed_queue_full") + raw("fdrepaird.requests.shed_quota") + raw("fdrepaird.requests.shed_draining")
	v["fdrepaird.shed_ratio"] = ratio(shed, shed+raw("fdrepaird.requests.admitted"))
	v["fdrepaird.degraded_ratio"] = ratio(raw("fdrepaird.requests.degraded"), raw("fdrepaird.requests.completed"))
	v["fdrepaird.ingest_bytes_per_op"] = ratio(raw("fdrepaird.ingest_bytes"), ops)

	for metricName, counter := range map[string]string{
		"srepair.nodes":              "nodes",
		"graph.matcher_sparse":       "matcher_sparse",
		"graph.matcher_fast_path":    "matcher_fast_path",
		"graph.matcher_dense":        "matcher_dense",
		"solve.task_steals":          "task_steals",
		"solve.tasks_inlined":        "tasks_inlined",
		"urepair.planner_components": "planner_components",
		"cfd.patterns":               "cfd_patterns",
		"denial.predicates":          "denial_predicates",
		"cqa.certain":                "cqa_certain",
		"priority.levels":            "priority_levels",
	} {
		v[metricName] = ratio(raw("solve."+counter), ops)
	}
	bp, bs := raw("solve.blocks_parallel"), raw("solve.blocks_serial")
	v["solve.parallel_block_share"] = ratio(bp, bp+bs)
	hits, misses := raw("solve.arena_hits"), raw("solve.arena_misses")
	v["solve.arena_hit_ratio"] = ratio(hits, hits+misses)

	v["session.block_reuse_ratio"] = ratio(raw("session.blocks_reused"), raw("session.blocks"))
	v["session.full_solve_ratio"] = ratio(raw("session.full_solves"), raw("session.repairs"))
	v["session.blocks_solved"] = ratio(raw("session.blocks_solved"), ops)

	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
