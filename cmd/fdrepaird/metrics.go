package main

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"

	"repro/fdrepair"
)

// handleMetrics renders the daemon's counters in Prometheus text
// exposition format, hand-rolled to keep the daemon dependency-free.
// Two families:
//
//   - fdrepaird_requests_total{outcome=...} — per-request admission and
//     completion outcomes (S6); the {algo=...} series of the same
//     family counts admitted requests by their parsed algorithm.
//   - fdrepaird_solve_<counter>_total — the solver's own SolveStats
//     snapshot, one series per counter, derived from the snapshot's
//     JSON tags so new solver counters show up without touching this
//     file.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	fmt.Fprintln(w, "# HELP fdrepaird_requests_total Solve requests by outcome.")
	fmt.Fprintln(w, "# TYPE fdrepaird_requests_total counter")
	for _, o := range []struct {
		name string
		v    int64
	}{
		{"admitted", s.m.admitted.Load()},
		{"shed_queue_full", s.m.shedQueue.Load()},
		{"shed_quota", s.m.shedQuota.Load()},
		{"shed_draining", s.m.shedDraining.Load()},
		{"rejected", s.m.rejected.Load()},
		{"completed", s.m.completed.Load()},
		{"failed", s.m.failed.Load()},
		{"deadline_exceeded", s.m.deadlineExceeded.Load()},
		{"panicked", s.m.panicked.Load()},
		{"degraded", s.m.degraded.Load()},
	} {
		fmt.Fprintf(w, "fdrepaird_requests_total{outcome=%q} %d\n", o.name, o.v)
	}
	for _, a := range fdrepair.Algorithms() {
		fmt.Fprintf(w, "fdrepaird_requests_total{algo=%q} %d\n", a, s.m.byAlgo[a].Load())
	}

	fmt.Fprintln(w, "# HELP fdrepaird_ingest_rows_total Rows accepted by the streaming CSV ingester.")
	fmt.Fprintln(w, "# TYPE fdrepaird_ingest_rows_total counter")
	fmt.Fprintf(w, "fdrepaird_ingest_rows_total %d\n", s.m.ingestRows.Load())
	fmt.Fprintln(w, "# HELP fdrepaird_ingest_bytes_total Request body bytes consumed by the streaming CSV ingester.")
	fmt.Fprintln(w, "# TYPE fdrepaird_ingest_bytes_total counter")
	fmt.Fprintf(w, "fdrepaird_ingest_bytes_total %d\n", s.m.ingestBytes.Load())

	fmt.Fprintln(w, "# HELP fdrepaird_solve_total Cumulative solver counters (SolveStats).")
	snap := s.sv.Stats()
	rv := reflect.ValueOf(snap)
	rt := rv.Type()
	type series struct {
		name string
		v    int64
	}
	var out []series
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		if tag == "" || tag == "-" || rt.Field(i).Type.Kind() != reflect.Int64 {
			continue
		}
		out = append(out, series{"fdrepaird_solve_" + tag + "_total", rv.Field(i).Int()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	for _, o := range out {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", o.name, o.name, o.v)
	}
}
