package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call. Spans of one op share Op; Parent is the
// index of the enclosing span (-1 for an op's root).
type span struct {
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`      // process CPU time spent inside the span
	Alloc  uint64 `json:"alloc_bytes"` // process heap bytes allocated inside the span
	Rows   int64  `json:"rows,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so the untraced loops run the same code behind one
// nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (or -1 on a nil tracer).
func (t *tracer) begin(op int64, layer string, parent int32) int32 {
	if t == nil {
		return -1
	}
	// CPU and Alloc start negated; end adds the current readings, which
	// leaves the deltas (uint64 wraps back to the right value).
	s := span{Op: op, Layer: layer, Parent: parent, CPU: -cpuNanos(), Alloc: -heapAllocs()}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// end closes span i, recording the rows and bytes the call handled.
func (t *tracer) end(i int32, rows, bytes int64) {
	if t == nil {
		return
	}
	cpu, alloc := cpuNanos(), heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	s.CPU += cpu
	s.Alloc += alloc
	s.Rows, s.Bytes = rows, bytes
}

// layerTotals aggregates spans by layer: calls, self time (duration
// minus the time covered by child spans), wall and CPU time, bytes
// allocated, rows and bytes handled.
type layerTotals struct {
	calls                      int
	self, wall, cpu, childWall time.Duration
	alloc                      uint64
	rows, bytes                int64
}

func (t *tracer) totals() map[string]*layerTotals {
	out := map[string]*layerTotals{}
	get := func(l string) *layerTotals {
		if out[l] == nil {
			out[l] = &layerTotals{}
		}
		return out[l]
	}
	// A span left open by a failed call has End 0 and is skipped.
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= s.Start {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		lt := get(s.Layer)
		d := time.Duration(s.End - s.Start)
		lt.calls++
		lt.wall += d
		lt.self += d - child[i]
		lt.childWall += child[i]
		lt.cpu += time.Duration(s.CPU)
		lt.alloc += s.Alloc
		lt.rows += s.Rows
		lt.bytes += s.Bytes
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuNanos is the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssSampler polls a process's resident set size every 5 ms and keeps
// the peak since the last reset.
type rssSampler struct {
	statm string // /proc/<pid>/statm
	mu    sync.Mutex
	peak  float64
	stop  chan struct{}
	done  chan struct{}
}

// startRSS samples process pid (0 = this process).
func startRSS(pid int) *rssSampler {
	statm := "/proc/self/statm"
	if pid != 0 {
		statm = fmt.Sprintf("/proc/%d/statm", pid)
	}
	r := &rssSampler{statm: statm, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssSampler) sample() float64 {
	mb := r.rssMB()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peak = max(r.peak, mb)
	return r.peak
}

// reset returns the peak since the last reset and restarts it from the
// current RSS.
func (r *rssSampler) reset() float64 {
	peak := r.sample()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peak = r.rssMB()
	return peak
}

func (r *rssSampler) close() {
	close(r.stop)
	<-r.done
}

var pageMB = float64(os.Getpagesize()) / (1 << 20)

// rssMB is the process's current resident set size.
func (r *rssSampler) rssMB() float64 {
	b, err := os.ReadFile(r.statm)
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	var pages float64
	if len(f) > 1 {
		fmt.Sscan(f[1], &pages)
	}
	return pages * pageMB
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// heapAllocs is the cumulative count of heap bytes the process has
// allocated.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// procCPU reads a child process's CPU time (utime+stime) from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+2:]))
	var ut, st int64
	if _, err := fmt.Sscan(f[11], &ut); err != nil {
		return 0, fmt.Errorf("parse utime: %w", err)
	}
	if _, err := fmt.Sscan(f[12], &st); err != nil {
		return 0, fmt.Errorf("parse stime: %w", err)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
