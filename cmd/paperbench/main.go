// Command paperbench regenerates every table, figure and worked example
// of "Computing Optimal Repairs for Functional Dependencies" (PODS
// 2018). Each experiment prints a report comparing the paper's claim
// with the measured outcome; ✓/✗ marks per row indicate agreement.
//
// Usage:
//
//	paperbench all          # run every experiment in paper order
//	paperbench E1 E7        # run selected experiments
//	paperbench -list        # list experiments
//	paperbench -benchjson BENCH_srepair.json   # machine-readable perf snapshot
//	go test -run '^$' -bench 'Cases/Fig1' ./cmd/paperbench   # time cases of that snapshot
//	paperbench -ingestsmoke 10240000           # memory-bounded ingestion smoke
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/table"
	"repro/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	benchJSON := flag.String("benchjson", "", "write a repair-engine benchmark snapshot to this JSON file (e.g. BENCH_srepair.json) and exit")
	ingestSmoke := flag.Int("ingestsmoke", 0, "stream this many synthetic CSV rows through table.IngestCSV and fail unless live heap stays out-of-core-bounded (run under GOMEMLIMIT to also bound transients)")
	flag.Parse()
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchJSON)
		return
	}
	if *ingestSmoke > 0 {
		if err := runIngestSmoke(*ingestSmoke); err != nil {
			fmt.Fprintf(os.Stderr, "ingestsmoke failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-5s %s\n", r.ID, r.Artifact)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: paperbench [-list] all | %s\n",
			strings.Join(experiments.IDs(), " | "))
		os.Exit(2)
	}
	runners := experiments.All()
	want := map[string]bool{}
	runAll := false
	for _, a := range args {
		if strings.EqualFold(a, "all") {
			runAll = true
			continue
		}
		want[strings.ToUpper(a)] = true
	}
	matched := 0
	for _, r := range runners {
		if !runAll && !want[r.ID] {
			continue
		}
		matched++
		out, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %v; try -list\n", args)
		os.Exit(2)
	}
}

// runIngestSmoke is the CI memory smoke for out-of-core ingestion: it
// streams n synthetic rows (3 attributes, 170-byte cells, 65536-value
// domains — about n·513 bytes of raw CSV) through table.IngestCSV and
// asserts the live heap afterwards is bounded by the encoding, not the
// raw string form. The bound is 120 bytes/row (rows + tuple headers +
// int32 columns, measured ~105 B/row) plus 256 MiB of dictionary and
// slack headroom. The seed []Tuple path retains one string per cell —
// upwards of 550 B/row live — so it cannot pass this bound, nor run
// under the GOMEMLIMIT CI pins for the smoke.
func runIngestSmoke(n int) error {
	const domain, width = 65536, 170
	t, err := table.IngestCSV(workload.IngestCSVInput(n, domain, width), "T")
	if err != nil {
		return err
	}
	if t.Len() != n {
		return fmt.Errorf("ingested %d rows, want %d", t.Len(), n)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(t)
	limit := uint64(n)*120 + 256<<20
	fmt.Printf("ingestsmoke: rows=%d raw=%d B live-heap=%d B (limit %d B)\n",
		n, workload.IngestCSVInputSize(n, width), ms.HeapAlloc, limit)
	if ms.HeapAlloc > limit {
		return fmt.Errorf("live heap %d B exceeds the out-of-core bound %d B", ms.HeapAlloc, limit)
	}
	return nil
}
