package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/solve"
	"repro/internal/table"
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

// benchCase is one entry of the case table (benchCases), which both
// paperbench -benchjson and BenchmarkCases run.
type benchCase struct {
	name string
	// bench is the timed body: timed for a case that repeats one call,
	// rounds for the session and cold-resolve cases, which rebuild state
	// off the clock.
	bench func(b *testing.B)
	// stats, when set, runs one untimed solve of the case's instance;
	// what it counts into c's stats sink is the case's solve_stats.
	stats func(c *solve.Ctx) error
}

// instance is an FD set and the table a case repairs under it.
type instance struct {
	ds  *fd.Set
	tab *table.Table
}

// writeBenchJSON measures every case of the table and writes the
// results as a JSON array.
func writeBenchJSON(path string) error {
	var out []benchResult
	for _, c := range benchCases() {
		r := testing.Benchmark(c.bench)
		// One run swings ±25% at millisecond scale (GC phase, pool
		// warmth, session-rebuild cadence) and slowdowns are one-sided,
		// so keep the fastest of three runs — except where one run
		// already takes 5 s (the 10M points), which dwarfs the noise.
		for extra := 0; extra < 2 && r.T < 5*time.Second; extra++ {
			if r2 := testing.Benchmark(c.bench); nsPerOp(r2) < nsPerOp(r) {
				r = r2
			}
		}
		out = append(out, benchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     nsPerOp(r),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			SolveStats:  c.solveStats(),
		})
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

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// timed is the body of every case that repeats one call: it gets the
// case's input (a getter generates it once, off the clock) and runs op
// b.N times.
func timed[In any](in func() In, op func(In) error) func(b *testing.B) {
	return func(b *testing.B) {
		x := in()
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// solveStats runs the case's stats solve once on a fresh serial stats
// context, so the snapshot describes exactly one solve of the case's
// instance rather than scaling with the timed loop's iteration count.
func (c benchCase) solveStats() *solve.Snapshot {
	if c.stats == nil {
		return nil
	}
	st := new(solve.Stats)
	if err := c.stats(solve.New(1, nil, st)); err != nil {
		// Surface the failure rather than silently omitting the stats
		// field (TestBenchJSONSchema would otherwise report a
		// misleading "no solve_stats").
		fmt.Fprintf(os.Stderr, "benchjson: %s: stats solve failed: %v\n", c.name, err)
		return nil
	}
	snap := st.Snapshot()
	return &snap
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
	return must(table.IngestCSV(&buf, t.Schema().Name()))
}

// must returns v, panicking on err: the table's specs are constants,
// and its generated inputs are well-formed by construction.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("benchjson: %v", err))
	}
	return v
}

// errOf keeps only the error of a call's results.
func errOf[T any](_ T, err error) error { return err }
