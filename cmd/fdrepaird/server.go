package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/fdrepair"
	"repro/internal/table"
)

// config freezes the daemon's operational knobs.
type config struct {
	workers        int           // solver worker budget
	queueDepth     int           // admitted-request bound; beyond it requests are shed
	tenantRate     float64       // per-tenant sustained requests/second (0 = unlimited)
	tenantBurst    float64       // per-tenant burst allowance
	defaultTimeout time.Duration // per-request deadline when the client asks for none
	maxTimeout     time.Duration // ceiling for client-requested ?timeout=
	approxFallback time.Duration // exact→approx degradation budget (0 = off)
	maxBody        int64         // request body cap in bytes
	logf           func(format string, args ...any)
}

// counters are the daemon's per-request outcome counters, exported at
// /metrics. Admission outcomes (admitted vs the shed_* family) sum to
// every /solve request seen. Each admitted request then ends in one
// completion outcome — rejected (refused with 400 or 413 before the
// solve), completed, failed, deadline_exceeded or panicked — unless the
// solver is closing, which counts it as shed_draining.
type counters struct {
	admitted         atomic.Int64
	shedQueue        atomic.Int64
	shedQuota        atomic.Int64
	shedDraining     atomic.Int64
	rejected         atomic.Int64
	completed        atomic.Int64
	failed           atomic.Int64
	deadlineExceeded atomic.Int64
	panicked         atomic.Int64
	degraded         atomic.Int64

	// Ingestion volume: rows and raw body bytes accepted by the
	// streaming CSV ingester across all /solve requests (including
	// requests whose solve later failed; a table was still built).
	ingestRows  atomic.Int64
	ingestBytes atomic.Int64

	// byAlgo counts admitted requests by their parsed algorithm, one
	// slot per fdrepair.Algorithms() entry (exported as
	// fdrepaird_requests_total{algo=...}); a request that later fails
	// or degrades still counts under the algorithm it asked for.
	byAlgo []atomic.Int64
}

// server is the repair daemon: admission control and lifecycle around
// one shared fdrepair.Solver.
type server struct {
	cfg      config
	sv       *fdrepair.Solver
	sem      chan struct{} // admission queue slots
	quotas   *quotas
	draining atomic.Bool
	m        counters
}

func newServer(cfg config) *server {
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 1
	}
	return &server{
		cfg:    cfg,
		sv:     fdrepair.NewSolver(fdrepair.WithParallelism(cfg.workers), fdrepair.WithStats()),
		sem:    make(chan struct{}, cfg.queueDepth),
		quotas: newQuotas(cfg.tenantRate, cfg.tenantBurst),
		m:      counters{byAlgo: make([]atomic.Int64, len(fdrepair.Algorithms()))},
	}
}

// routes builds the daemon's handler.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /solve", s.handleSolve)
	return mux
}

// startDrain flips the server into draining: /readyz reports 503 so
// load balancers stop routing here, and new /solve requests are shed.
// In-flight requests keep running; the HTTP shutdown and Solver.Close
// in main wait for them.
func (s *server) startDrain() { s.draining.Store(true) }

// handleHealthz: liveness — the process is up and serving.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz: readiness — 200 while admitting, 503 once draining.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleSolve admits and runs one repair request:
//
//	POST /solve?fd=A+-%3E+B&algo=auto&timeout=5s
//	X-Tenant: team-a
//	<CSV table body>
//
// The body is the table (header row = attributes; optional id/w
// columns). algo names an fdrepair.Algorithm (default auto); the other
// parameters (fd, cfd, dc, project, where, prefer) are the
// fdrepair.ParseRequest vocabulary. The response is the repaired table
// as CSV with X-Repair-* headers.
func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Admission, cheapest gate first: drain state, then the tenant
	// quota (token bucket), then a queue slot.
	if s.draining.Load() {
		s.m.shedDraining.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "anonymous"
	}
	if ok, wait := s.quotas.allow(tenant); !ok {
		s.m.shedQuota.Add(1)
		w.Header().Set("Retry-After", retryAfter(wait))
		http.Error(w, fmt.Sprintf("tenant %q over quota", tenant), http.StatusTooManyRequests)
		return
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.m.shedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "request queue full", http.StatusTooManyRequests)
		return
	}
	s.m.admitted.Add(1)

	// Parse outside the solver: a malformed request must cost nothing
	// but the parse.
	q := r.URL.Query()
	algoName := q.Get("algo")
	if algoName == "" {
		algoName = "auto"
	}
	algo, err := fdrepair.ParseAlgorithm(algoName)
	if err != nil {
		s.reject(w, err.Error(), http.StatusBadRequest)
		return
	}
	timeout := s.cfg.defaultTimeout
	if ts := q.Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d <= 0 {
			s.reject(w, fmt.Sprintf("bad timeout %q", ts), http.StatusBadRequest)
			return
		}
		timeout = d
	}
	if s.cfg.maxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.maxTimeout) {
		timeout = s.cfg.maxTimeout
	}
	// The body streams straight through the chunked ingester: the
	// daemon never holds the raw CSV in memory, only the dictionary
	// encoding, so peak memory per request is bounded by the encoded
	// table plus one chunk — not the body size. A body over the cap
	// fails the read, so it is refused whole, never repaired truncated.
	cr := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.maxBody)}
	tab, err := table.IngestCSV(cr, "T")
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.reject(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		s.reject(w, fmt.Sprintf("bad table: %v", err), http.StatusBadRequest)
		return
	}
	s.m.ingestRows.Add(int64(tab.Len()))
	s.m.ingestBytes.Add(cr.n.Load())
	req, err := fdrepair.ParseRequest(tab, algo, q)
	if err != nil {
		s.reject(w, err.Error(), http.StatusBadRequest)
		return
	}

	// One request = one single-element batch on the shared Solver: its
	// own scope, deadline and stats; its recursion's tasks interleave
	// with every other in-flight request on the one scheduler.
	// Request.Context is the connection's context, so a vanished client
	// cancels its own solve and nothing else.
	req.Context = r.Context()
	s.m.byAlgo[algo].Add(1)
	opts := []fdrepair.BatchOption{fdrepair.WithRequestTimeout(timeout)}
	if s.cfg.approxFallback > 0 {
		opts = append(opts, fdrepair.WithApproxFallback(s.cfg.approxFallback))
	}
	res := s.sv.SolveBatch([]fdrepair.Request{req}, opts...)[0]
	if res.Err != nil {
		s.writeSolveError(w, r, res.Err)
		return
	}
	s.m.completed.Add(1)
	if res.Degraded {
		s.m.degraded.Add(1)
	}
	// X-Repair-Algorithm names the algorithm that ran: auto ran
	// Algorithm 1 or, degraded, the 2-approximation.
	ranAlgo := algo
	if algo == fdrepair.AlgoAuto {
		ranAlgo = fdrepair.AlgoOptimalSRepair
		if res.Degraded {
			ranAlgo = fdrepair.AlgoApproxSRepair
		}
	}
	h := w.Header()
	h.Set("Content-Type", "text/csv")
	h.Set("X-Repair-Algorithm", ranAlgo.String())
	if res.CQA != nil {
		// algo=cqa produces answer sets, not a repair: the body is the
		// certain answers as CSV over the projected attributes (in schema
		// order, as the answers list them), counts in the headers.
		h.Set("X-Cqa-Certain", strconv.Itoa(len(res.CQA.Certain)))
		h.Set("X-Cqa-Possible", strconv.Itoa(len(res.CQA.Possible)))
		h.Set("X-Cqa-Repairs", strconv.Itoa(res.CQA.Repairs))
		fmt.Fprintln(w, strings.Join(req.Query.Columns(), ","))
		for _, tup := range res.CQA.Certain {
			fmt.Fprintln(w, strings.Join(tup, ","))
		}
		return
	}
	// Table and Cost carry every algorithm's repair (for urepair the
	// update and dist_upd).
	if res.URepair != nil {
		h.Set("X-Urepair-Exact", strconv.FormatBool(res.URepair.Exact))
		h.Set("X-Urepair-Ratio", strconv.FormatFloat(res.URepair.RatioBound, 'g', -1, 64))
		h.Set("X-Urepair-Method", res.URepair.Method)
	}
	h.Set("X-Repair-Cost", strconv.FormatFloat(res.Cost, 'g', -1, 64))
	h.Set("X-Repair-Kept", strconv.Itoa(res.Table.Len()))
	h.Set("X-Repair-Input-Rows", strconv.Itoa(tab.Len()))
	h.Set("X-Repair-Degraded", strconv.FormatBool(res.Degraded))
	if err := res.Table.WriteCSV(w); err != nil {
		// Headers are gone; all we can do is log.
		s.cfg.logf("fdrepaird: writing response: %v", err)
	}
}

// reject refuses an admitted request before its solve — a malformed
// request (400) or a body over -max-body (413) — and counts it.
func (s *server) reject(w http.ResponseWriter, msg string, code int) {
	s.m.rejected.Add(1)
	http.Error(w, msg, code)
}

// writeSolveError maps a request's failure to an HTTP status and
// counts the outcome.
func (s *server) writeSolveError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *fdrepair.PanicError
	switch {
	case errors.As(err, &pe):
		// The panic was isolated to this request; the daemon, solver and
		// scheduler are intact. The stack goes to the log, not the
		// client.
		s.m.panicked.Add(1)
		s.cfg.logf("fdrepaird: %s %s: isolated panic: %v", r.Method, r.URL.Path, err)
		http.Error(w, fmt.Sprintf("solve panicked (isolated): %v", pe.Value), http.StatusInternalServerError)
	case errors.Is(err, context.DeadlineExceeded):
		s.m.deadlineExceeded.Add(1)
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away; 499 is nginx-speak, 408 is the closest
		// standard status.
		s.m.failed.Add(1)
		http.Error(w, "canceled", http.StatusRequestTimeout)
	case errors.Is(err, fdrepair.ErrSolverClosed):
		s.m.shedDraining.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case errors.Is(err, fdrepair.ErrNoSimplification):
		s.m.failed.Add(1)
		http.Error(w, "FD set is APX-hard for exact S-repair; use algo=auto, approx or exact", http.StatusUnprocessableEntity)
	default:
		s.m.failed.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// countingReader counts bytes as they stream through to the ingester,
// so the volume metrics reflect what was actually read — not the
// Content-Length header, which streaming clients may omit.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// retryAfter renders a wait as whole seconds, rounding up, minimum 1 —
// Retry-After takes integral seconds.
func retryAfter(wait time.Duration) string {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
