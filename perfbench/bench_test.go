package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{
	libraryRows: 3000,
	sessionRows: 2000,
	sessionOps:  4,
	sessionLife: 2,
	serveMin:    20,
	serveMax:    200,
	serveExact:  60,
	serveGrid:   2,
	setups:      2,
}

var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "fdrepaird")
	build := exec.Command("go", "build", "-o", daemonBin, "repro/cmd/fdrepaird")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building fdrepaird: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyConfig(t *testing.T) config {
	return config{seed: 7, daemon: daemonBin, outDir: t.TempDir(), sz: tinySizes}
}

// contract is the metric list BENCHMARK.json declares.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEveryMetricReported runs each workload untraced and traced and
// requires exactly the metrics BENCHMARK.json names, with their units,
// and a correct result.
func TestEveryMetricReported(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	if len(c.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(c.PerLayer), len(perLayerMetrics))
	}
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			res, env, _, err := measure(w.Name, tinyConfig(t), 200*time.Millisecond, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %q", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for _, m := range c.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
			for _, k := range []string{"nproc", "gomaxprocs", "go_version", "commit", "source"} {
				if _, ok := env[k]; !ok {
					t.Errorf("%s: environment record lacks %s", w.Name, k)
				}
			}
		}
	}
}

// TestCorruptedOutputCounted corrupts one output after set-up on each
// workload and requires the correctness gate to count exactly that op
// as failed.
func TestCorruptedOutputCounted(t *testing.T) {
	for name, setup := range workloads {
		var armed atomic.Bool
		var hits atomic.Int32
		cfg := tinyConfig(t)
		cfg.tamper = func(b []byte) []byte {
			if armed.Load() && hits.Add(1) == 1 && len(b) > 0 {
				b[len(b)/2] ^= 0x20
			}
			return b
		}
		inst, err := setup(cfg)
		if err != nil {
			t.Fatalf("%s: set-up: %v", name, err)
		}
		armed.Store(true)
		lr, err := inst.loop(100*time.Millisecond, nil)
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lr.failed() != 1 || len(lr.ops) < 2 {
			t.Errorf("%s: %d of %d ops failed after corrupting one output, want exactly 1", name, lr.failed(), len(lr.ops))
		}
	}
}

// TestCountsRepeat requires the worker-independent counters to repeat
// exactly, per op, across two traced runs with the same seed.
func TestCountsRepeat(t *testing.T) {
	independent := func(k string) bool {
		for _, p := range []string{"solve.nodes", "solve.matcher_", "solve.planner_", "solve.cfd_", "solve.denial_", "solve.cqa_", "solve.priority_", "session.", "fdrepaird."} {
			if strings.HasPrefix(k, p) {
				return true
			}
		}
		return false
	}
	for name := range workloads {
		var perOp [2]map[string]float64
		for run := range perOp {
			_, _, raw, err := measure(name, tinyConfig(t), 200*time.Millisecond, true, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			perOp[run] = map[string]float64{}
			for k, v := range raw {
				if independent(k) {
					perOp[run][k] = float64(v) / float64(raw["ops"])
				}
			}
		}
		for k, v := range perOp[0] {
			if perOp[1][k] != v {
				t.Errorf("%s: %s per op = %v then %v", name, k, v, perOp[1][k])
			}
		}
	}
}
