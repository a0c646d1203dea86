// Package failpoint provides registry- and environment-driven fault
// injection for the solve engine and the fdrepaird daemon.
//
// A failpoint is a named site in the engine (the block-dispatch hook in
// internal/solve evaluates every point below) armed with a Spec that
// decides when it fires and what it does: panic, sleep, allocate, or —
// for caller-interpreted points — merely report that it fired. The
// chaos suites arm points programmatically; the daemon arms them from
// the FDREPAIR_FAILPOINTS environment variable, so an operator can
// rehearse panics, stalls and memory spikes against a running binary
// without a rebuild.
//
// The disarmed fast path is one atomic load (Active), so instrumented
// sites cost nothing in production.
package failpoint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The failpoints evaluated by the solve engine's block-dispatch hook.
const (
	// PanicInBlock panics when it fires — exercises the scheduler's and
	// batch layer's panic isolation.
	PanicInBlock = "panic-in-block"
	// SlowBlock sleeps Spec.Sleep when it fires — exercises deadlines,
	// load shedding and drain under stalled solves.
	SlowBlock = "slow-block"
	// AllocSpike allocates (and touches) Spec.Bytes when it fires —
	// exercises behavior under transient memory pressure.
	AllocSpike = "alloc-spike"
	// CancelMidRecursion reports firing to the dispatch hook, which
	// injects a context.Canceled into the current request's scope —
	// exercises cancellation landing between recursion levels.
	CancelMidRecursion = "cancel-mid-recursion"
)

// EnvVar is the environment variable EnableFromEnv reads.
const EnvVar = "FDREPAIR_FAILPOINTS"

// Spec configures when an armed failpoint fires and what it does.
// The zero value fires on every evaluation with the effect defaults
// below.
type Spec struct {
	// After skips the first After evaluations.
	After int
	// Every then fires on every Every-th evaluation (≤ 1 = every one).
	Every int
	// Count stops the point after Count fires (0 = unlimited).
	Count int
	// Sleep is SlowBlock's stall per fire (default 2ms).
	Sleep time.Duration
	// Bytes is AllocSpike's allocation per fire (default 8 MiB).
	Bytes int
}

// point is one armed failpoint: its spec plus evaluation/fire counters.
type point struct {
	spec  Spec
	evals atomic.Int64
	fires atomic.Int64
}

var (
	// armed counts enabled points; Active's fast path.
	armed atomic.Int32

	mu     sync.RWMutex
	points = make(map[string]*point)

	// spikeSink keeps the most recent alloc-spike buffer reachable so
	// the allocation cannot be optimized away; each fire replaces it,
	// so at most one spike is live at a time.
	spikeSink atomic.Pointer[[]byte]
)

// Active reports whether any failpoint is armed. Instrumented sites
// gate on it so the disarmed cost is one atomic load.
func Active() bool { return armed.Load() > 0 }

// Enable arms (or re-arms, resetting counters) the named failpoint.
func Enable(name string, spec Spec) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{spec: spec}
}

// DisableAll disarms every failpoint. Chaos tests defer it so a failed
// assertion never leaks an armed point into later tests.
func DisableAll() {
	mu.Lock()
	defer mu.Unlock()
	for name := range points {
		delete(points, name)
		armed.Add(-1)
	}
}

// Fires returns how many times the named failpoint has fired since it
// was armed (0 when not armed).
func Fires(name string) int64 {
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return 0
	}
	return p.fires.Load()
}

// Eval evaluates the named failpoint: it reports whether the point
// fires at this call and applies the point's intrinsic effect
// (PanicInBlock panics, SlowBlock sleeps, AllocSpike allocates;
// caller-interpreted points like CancelMidRecursion only report).
// Evaluating a disarmed point is cheap and returns false.
func Eval(name string) bool {
	if !Active() {
		return false
	}
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return false
	}
	n := p.evals.Add(1)
	k := n - int64(p.spec.After)
	if k <= 0 {
		return false
	}
	if e := int64(p.spec.Every); e > 1 && (k-1)%e != 0 {
		return false
	}
	fire := p.fires.Add(1)
	if c := int64(p.spec.Count); c > 0 && fire > c {
		p.fires.Add(-1)
		return false
	}
	switch name {
	case PanicInBlock:
		panic(fmt.Sprintf("failpoint: %s fired (fire %d)", name, fire))
	case SlowBlock:
		d := p.spec.Sleep
		if d <= 0 {
			d = 2 * time.Millisecond
		}
		time.Sleep(d)
	case AllocSpike:
		b := p.spec.Bytes
		if b <= 0 {
			b = 8 << 20
		}
		spike := make([]byte, b)
		for i := 0; i < len(spike); i += 4096 {
			spike[i] = 1
		}
		spikeSink.Store(&spike)
	}
	return true
}

// Parse decodes a failpoint arming string of the form
//
//	name[=key:val[,key:val...]][;name2=...]
//
// with keys after, every, count (integers), sleep (time.Duration) and
// bytes (integer). A bare name arms the point with the zero Spec
// (fires on every evaluation). Example:
//
//	panic-in-block=after:100,count:1;slow-block=sleep:5ms,every:8
func Parse(s string) (map[string]Spec, error) {
	out := make(map[string]Spec)
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, args, _ := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("failpoint: empty name in %q", entry)
		}
		var spec Spec
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), ":")
				if !ok {
					return nil, fmt.Errorf("failpoint: %s: bad key:val %q", name, kv)
				}
				switch key {
				case "after", "every", "count", "bytes":
					n, err := strconv.Atoi(val)
					if err != nil || n < 0 {
						return nil, fmt.Errorf("failpoint: %s: bad %s value %q", name, key, val)
					}
					switch key {
					case "after":
						spec.After = n
					case "every":
						spec.Every = n
					case "count":
						spec.Count = n
					case "bytes":
						spec.Bytes = n
					}
				case "sleep":
					d, err := time.ParseDuration(val)
					if err != nil || d < 0 {
						return nil, fmt.Errorf("failpoint: %s: bad sleep value %q", name, val)
					}
					spec.Sleep = d
				default:
					return nil, fmt.Errorf("failpoint: %s: unknown key %q", name, key)
				}
			}
		}
		out[name] = spec
	}
	return out, nil
}

// EnableFromEnv arms every failpoint named by the FDREPAIR_FAILPOINTS
// environment variable (see Parse for the format) and returns the
// armed names in arming order. An empty or unset variable arms
// nothing.
func EnableFromEnv(value string) ([]string, error) {
	specs, err := Parse(value)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(specs))
	for name, spec := range specs {
		Enable(name, spec)
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
