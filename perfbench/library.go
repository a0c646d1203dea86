package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/fdrepair"
	"repro/internal/table"
)

// library is library-large: one caller and one long-lived parallel
// Solver; each op takes a CSV of cfg.sz.libraryRows rows through
// table.IngestCSV → Solver.OptimalSRepair (whose cost is DistSub) →
// WriteCSV, alternating between the chain and marriage-sparse shapes.
type library struct {
	cfg config
	sv  *fdrepair.Solver
	in  []libInput
}

type libInput struct {
	shape
	csv []byte
	ref outRef
}

// outRef is an op's expected output: a digest of the repaired table's
// bytes and the repair's cost.
type outRef struct {
	digest uint32
	cost   float64
}

func setupLibrary(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	l := &library{cfg: cfg, sv: fdrepair.NewSolver(fdrepair.WithParallelism(runtime.NumCPU()), fdrepair.WithStats())}
	serial := fdrepair.NewSolver()
	for _, sh := range shapes {
		in := libInput{shape: sh, csv: sh.gen(cfg.sz.libraryRows, rng)}
		t, err := table.IngestCSV(bytes.NewReader(in.csv), "T")
		if err != nil {
			return nil, err
		}
		ds, err := fdrepair.ParseFDs(t.Schema(), sh.fds...)
		if err != nil {
			return nil, err
		}
		rep, cost, err := serial.OptimalSRepair(ds, t)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", sh.name, err)
		}
		if !rep.Satisfies(ds) {
			return nil, fmt.Errorf("%s reference repair violates its FDs", sh.name)
		}
		var out bytes.Buffer
		if err := rep.WriteCSV(&out); err != nil {
			return nil, err
		}
		in.ref = outRef{crc32.ChecksumIEEE(out.Bytes()), cost}
		l.in = append(l.in, in)
	}
	// Warm-up: one op of each shape on the measured Solver.
	for k := range l.in {
		if ok, err := l.op(k, nil, -1); !ok {
			return nil, fmt.Errorf("warm-up %s: wrong output (%v)", l.in[k].name, err)
		}
	}
	return l, nil
}

// op runs one library call chain on input k and checks its output.
func (l *library) op(k int, tr *tracer, id int64) (bool, error) {
	in := &l.in[k]
	root := tr.begin(id, "op", -1)
	defer tr.end(root, 0, 0)

	s := tr.begin(id, "table.ingest", root)
	t, err := table.IngestCSV(bytes.NewReader(in.csv), "T")
	if err != nil {
		return false, err
	}
	tr.end(s, int64(t.Len()), int64(len(in.csv)))

	s = tr.begin(id, "spec.parse", root)
	ds, err := fdrepair.ParseFDs(t.Schema(), in.fds...)
	tr.end(s, 0, 0)
	if err != nil {
		return false, err
	}

	s = tr.begin(id, "srepair.solve", root)
	rep, cost, err := l.sv.OptimalSRepair(ds, t)
	tr.end(s, int64(t.Len()), 0)
	if err != nil {
		return false, err
	}

	s = tr.begin(id, "table.write_csv", root)
	var w crcWriter
	var buf *bytes.Buffer
	if l.cfg.tamper != nil {
		buf = new(bytes.Buffer)
		err = rep.WriteCSV(buf)
	} else {
		err = rep.WriteCSV(&w)
	}
	tr.end(s, int64(rep.Len()), w.n)
	if err != nil {
		return false, err
	}
	if buf != nil {
		w.sum = l.cfg.digest(buf.Bytes())
	}
	return w.sum == in.ref.digest && cost == in.ref.cost, nil
}

func (l *library) loop(d time.Duration, tr *tracer) (*loopResult, error) {
	lr := &loopResult{kinds: len(l.in), raw: map[string]int64{}}
	rss := startRSS(0)
	defer rss.close()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d || i%len(l.in) != 0; i++ {
		// Each op starts from a collected heap with freed memory returned
		// to the OS (untimed), so one op's garbage does not bill the next
		// and each op's peak RSS can be read on its own.
		pause := time.Now()
		debug.FreeOSMemory()
		start = start.Add(time.Since(pause))
		rss.reset()
		k := i % len(l.in)
		lr.timed(k, l.sv, func() bool {
			ok, _ := l.op(k, tr, int64(i))
			return ok
		})
		lr.ops[len(lr.ops)-1].rssMB = rss.reset()
	}
	return lr, nil
}

func (l *library) env() map[string]any {
	return map[string]any{"solver_parallelism": l.sv.Parallelism(), "rows": l.cfg.sz.libraryRows}
}

func (l *library) close() error { return l.sv.Close(nil) }

// timed runs one single-caller op and adds its latency, CPU time, heap
// allocation and solver-counter deltas to lr.
func (lr *loopResult) timed(kind int, sv *fdrepair.Solver, op func() bool) {
	st0, cpu0, a0 := sv.Stats(), cpuNanos(), heapAllocs()
	t0 := time.Now()
	ok := op()
	lat := time.Since(t0)
	lr.cpu += time.Duration(cpuNanos() - cpu0)
	lr.alloc += float64(heapAllocs() - a0)
	addCounters(lr.raw, st0, sv.Stats())
	lr.ops = append(lr.ops, opSample{kind: kind, lat: lat, ok: ok})
	lr.busy += lat
}

// addCounters adds after−before of every SolveStats counter to raw,
// keyed "solve." + the counter's JSON name (the name fdrepaird's
// /metrics uses too).
func addCounters(raw map[string]int64, before, after fdrepair.SolveStats) {
	b, a := counterMap(before), counterMap(after)
	for k, v := range a {
		raw["solve."+k] += v - b[k]
	}
}

func counterMap(s fdrepair.SolveStats) map[string]int64 {
	var m map[string]int64
	b, _ := json.Marshal(s)
	_ = json.Unmarshal(b, &m) // SolveStats is a flat struct of int64 counters
	return m
}
