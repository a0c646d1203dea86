package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/fdrepair"
	"repro/internal/table"
)

// serve is serve-mixed: the fdrepaird binary on loopback with
// -workers=nproc, driven by nproc closed-loop clients on keep-alive
// connections. One cycle sends every request of a fixed pool once, in a
// seeded order: each request kind (one per algo= value the daemon
// accepts, plus auto over a hard FD set) at cfg.sz.serveGrid body sizes
// log-spaced from serveMin to serveMax rows.
type serve struct {
	cfg     config
	workers int
	reqs    []*serveReq
	order   []int // dispatch order of one cycle
	allocs  float64
	replay  *fdrepair.Solver // traced in-process replays, configured like the daemon
	replayM sync.Mutex       // replays run one at a time

	cmd     *exec.Cmd
	log     *os.File
	base    string // http://addr
	clients []*http.Client
	exited  chan struct{}
}

// serveReq is one pooled request and its expected reply.
type serveReq struct {
	kind string
	q    url.Values
	path string
	body []byte
	want reply
}

// reply is what the correctness gate compares besides the 200 status:
// the X-* result headers and a digest of the body.
type reply struct {
	header map[string]string
	digest uint32
}

const (
	chainFDs    = "A -> B|A B -> C"
	marriageFDs = "A -> B|B -> A|B -> C"
	hardFDs     = "A -> B|B -> C" // Table 1's ΔA→B→C
)

// serveKinds is the request mix: every algo= value fdrepaird accepts.
var serveKinds = []struct {
	name string
	// exact bodies stay small: the exact cover search caps at 512 rows.
	exact bool
	build func(j, n int, rng *rand.Rand) (url.Values, []byte)
}{
	{"auto", false, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		return fdQuery("auto", []string{chainFDs, marriageFDs}[j%2]), randomCSV(n, 8, false, rng)
	}},
	{"auto-hard", false, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		return fdQuery("auto", hardFDs), randomCSV(n, 8, false, rng)
	}},
	{"exact", true, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		return fdQuery("exact", hardFDs), blockCSV(n, 0.05, rng)
	}},
	{"approx", false, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		return fdQuery("approx", "A -> C|B -> C"), randomCSV(n, 8, false, rng)
	}},
	{"urepair", false, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		return fdQuery("urepair", []string{"A -> B|A -> C", "A -> B|B -> A"}[j%2]), randomCSV(n, 8, false, rng)
	}},
	{"mpd", false, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		return fdQuery("mpd", chainFDs), randomCSV(n, 8, true, rng)
	}},
	{"cfd", false, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		return url.Values{"algo": {"cfd"}, "cfd": {"A -> B", "B -> C | v1 -> _"}}, randomCSV(n, 8, false, rng)
	}},
	{"denial", false, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		return url.Values{"algo": {"denial"}, "dc": {"t1.A = t2.A & t1.B != t2.B", "t1.B = t2.B & t1.C != t2.C"}}, randomCSV(n, 8, false, rng)
	}},
	{"cqa", false, func(j, n int, rng *rand.Rand) (url.Values, []byte) {
		q := fdQuery("cqa", "A -> B")
		q.Set("project", "A,B")
		return q, cleanCSV(n, 0.1, rng)
	}},
	{"priority", false, priorityRequest},
}

func fdQuery(algo, fds string) url.Values {
	return url.Values{"algo": {algo}, "fd": strings.Split(fds, "|")}
}

// priorityRequest is a chain-FD table plus up to 16 preferences between
// conflicting tuples (same A, different B), each preferring the lower
// id, so the relation is acyclic.
func priorityRequest(j, n int, rng *rand.Rand) (url.Values, []byte) {
	d := max(n/8, 2)
	buf := []byte(csvHeader)
	firstB := map[int][2]int{} // A value -> (id, B) of its first row
	var prefer []string
	for i := 1; i <= n; i++ {
		a, b, c := rng.Intn(d), rng.Intn(d), rng.Intn(d)
		buf = appendRow(buf, i, 'v', a, 'v', b, 'v', c, weight(false, rng))
		if f, ok := firstB[a]; !ok {
			firstB[a] = [2]int{i, b}
		} else if f[1] != b && len(prefer) < 16 && rng.Intn(4) == 0 {
			prefer = append(prefer, fmt.Sprintf("%d>%d", f[0], i))
		}
	}
	q := fdQuery("priority", chainFDs)
	q["prefer"] = prefer
	return q, buf
}

func setupServe(cfg config) (instance, error) {
	if cfg.daemon == "" {
		return nil, errors.New("serve-mixed needs -daemon (the fdrepaird binary)")
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &serve{cfg: cfg, workers: runtime.NumCPU()}
	s.replay = fdrepair.NewSolver(fdrepair.WithParallelism(s.workers))
	serial := fdrepair.NewSolver()
	for _, k := range serveKinds {
		hi := cfg.sz.serveMax
		if k.exact {
			hi = cfg.sz.serveExact
		}
		for j, n := range logGrid(cfg.sz.serveMin, hi, cfg.sz.serveGrid) {
			q, body := k.build(j, n, rng)
			rq := &serveReq{kind: k.name, q: q, path: "/solve?" + q.Encode(), body: body}
			a0 := heapAllocs()
			want, err := replay(serial, rq, nil, -1, -1, true)
			s.allocs += float64(heapAllocs() - a0)
			if err != nil {
				return nil, fmt.Errorf("%s reference (%d rows): %w", k.name, n, err)
			}
			rq.want = want
			s.reqs = append(s.reqs, rq)
		}
	}
	s.order = rng.Perm(len(s.reqs))
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: every pooled request once.
	for _, rq := range s.reqs {
		if ok, err := s.send(s.clients[0], rq, new(bytes.Buffer)); !ok {
			s.close()
			return nil, fmt.Errorf("warm-up %s: wrong reply (%v)", rq.kind, err)
		}
	}
	return s, nil
}

// start launches the daemon and waits for /readyz.
func (s *serve) start() error {
	if err := os.MkdirAll(s.cfg.outDir, 0o755); err != nil {
		return err
	}
	var err error
	if s.log, err = os.Create(filepath.Join(s.cfg.outDir, "fdrepaird.log")); err != nil {
		return err
	}
	s.cmd = exec.Command(s.cfg.daemon, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(s.workers))
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	// The daemon must not outlive the benchmark, however it exits.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return err
	}
	s.exited = make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.base == "" {
		b, _ := os.ReadFile(s.log.Name())
		if _, rest, ok := strings.Cut(string(b), "fdrepaird: listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				s.base = "http://" + addr
				break
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("fdrepaird exited during start-up: %s", b)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("fdrepaird did not report its address")
		}
	}
	for range s.workers {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	for {
		resp, err := s.clients[0].Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fdrepaird not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// send posts one request and checks the reply against its reference.
func (s *serve) send(c *http.Client, rq *serveReq, buf *bytes.Buffer) (bool, error) {
	resp, err := c.Post(s.base+rq.path, "text/csv", bytes.NewReader(rq.body))
	if err != nil {
		return false, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	for k, v := range rq.want.header {
		if got := resp.Header.Get(k); got != v {
			return false, fmt.Errorf("header %s = %q, want %q", k, got, v)
		}
	}
	if s.cfg.digest(buf.Bytes()) != rq.want.digest {
		return false, errors.New("body differs from the reference")
	}
	return true, nil
}

func (s *serve) loop(d time.Duration, tr *tracer) (*loopResult, error) {
	lr := &loopResult{kinds: 1}
	m0, err := s.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	rss := startRSS(s.cmd.Process.Pid)
	defer rss.close()
	var mu sync.Mutex // guards next, stopped, lr.ops and lr.cyclePeaks
	next, stopped := 0, false
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for {
				// Stop only on a cycle boundary, so every cycle that
				// started also completes.
				mu.Lock()
				if !stopped && next%len(s.reqs) == 0 {
					if next > 0 {
						lr.cyclePeaks = append(lr.cyclePeaks, rss.reset())
					}
					stopped = next > 0 && time.Since(start) >= d
				}
				i, stop := next, stopped
				next++
				mu.Unlock()
				if stop {
					return
				}
				rq := s.reqs[s.order[i%len(s.reqs)]]
				root := tr.begin(int64(i), "op", -1)
				t0 := time.Now()
				ok, _ := s.send(c, rq, buf)
				lat := time.Since(t0)
				tr.end(root, 0, 0)
				if tr != nil {
					s.replayM.Lock()
					rp := tr.begin(int64(i), "replay", -1)
					replay(s.replay, rq, tr, int64(i), rp, false)
					tr.end(rp, 0, 0)
					s.replayM.Unlock()
				}
				mu.Lock()
				lr.ops = append(lr.ops, opSample{lat: lat, ok: ok})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lr.busy = time.Since(start)
	cpu1, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	m1, err := s.scrape()
	if err != nil {
		return nil, err
	}
	lr.cpu = cpu1 - cpu0
	// The daemon exports no heap counters; this is the in-process replay
	// of the same requests (measured in set-up), per request of a cycle.
	lr.alloc = s.allocs / float64(len(s.reqs)) * float64(len(lr.ops))
	lr.raw = map[string]int64{}
	for k, v := range m1 {
		lr.raw[k] = v - m0[k]
	}
	return lr, nil
}

// scrape reads fdrepaird's /metrics counters, keyed as in loopResult.raw:
// fdrepaird.requests.<outcome>, fdrepaird.requests.algo.<algo>,
// fdrepaird.ingest_{rows,bytes} and solve.<counter>.
func (s *serve) scrape() (map[string]int64, error) {
	resp, err := s.clients[0].Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		switch {
		case strings.HasPrefix(name, `fdrepaird_requests_total{outcome="`):
			name = "fdrepaird.requests." + strings.TrimSuffix(strings.TrimPrefix(name, `fdrepaird_requests_total{outcome="`), `"}`)
		case strings.HasPrefix(name, `fdrepaird_requests_total{algo="`):
			name = "fdrepaird.requests.algo." + strings.TrimSuffix(strings.TrimPrefix(name, `fdrepaird_requests_total{algo="`), `"}`)
		case strings.HasPrefix(name, "fdrepaird_ingest_"):
			name = "fdrepaird.ingest_" + strings.TrimSuffix(strings.TrimPrefix(name, "fdrepaird_ingest_"), "_total")
		case strings.HasPrefix(name, "fdrepaird_solve_"):
			name = "solve." + strings.TrimSuffix(strings.TrimPrefix(name, "fdrepaird_solve_"), "_total")
		}
		out[name] = v
	}
	return out, sc.Err()
}

func (s *serve) env() map[string]any {
	return map[string]any{
		"daemon_workers":            s.workers,
		"replay_solver_parallelism": s.replay.Parallelism(),
		"clients":                   len(s.clients),
		"requests_per_cycle":        len(s.reqs),
	}
}

// close drains the daemon with SIGTERM (SIGKILL after 10 s) and waits
// for it to exit.
func (s *serve) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	var err error
	if s.cmd != nil && s.cmd.Process != nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
			err = errors.New("fdrepaird did not drain within 10s")
		}
	}
	if s.log != nil {
		s.log.Close()
	}
	return errors.Join(err, s.replay.Close(nil))
}

// engineLayer names the layer each algorithm's solve belongs to.
var engineLayer = map[fdrepair.Algorithm]string{
	fdrepair.AlgoOptimalSRepair: "srepair.solve",
	fdrepair.AlgoExactSRepair:   "srepair.solve",
	fdrepair.AlgoApproxSRepair:  "srepair.solve",
	fdrepair.AlgoOptimalURepair: "urepair.solve",
	fdrepair.AlgoMostProbable:   "mpd.solve",
	fdrepair.AlgoCFDSRepair:     "cfd.solve",
	fdrepair.AlgoDenialSRepair:  "denial.solve",
	fdrepair.AlgoCQA:            "cqa.solve",
	fdrepair.AlgoPriorityRepair: "priority.solve",
}

var algoNames = map[string]fdrepair.Algorithm{
	"auto": fdrepair.AlgoOptimalSRepair, "exact": fdrepair.AlgoExactSRepair, "approx": fdrepair.AlgoApproxSRepair,
	"urepair": fdrepair.AlgoOptimalURepair, "mpd": fdrepair.AlgoMostProbable, "cfd": fdrepair.AlgoCFDSRepair,
	"denial": fdrepair.AlgoDenialSRepair, "cqa": fdrepair.AlgoCQA, "priority": fdrepair.AlgoPriorityRepair,
}

// replay runs a request in process through the public calls fdrepaird's
// /solve handler makes — table.IngestCSV, the spec parsers,
// Solver.SolveBatch (again as approx when algo=auto meets a hard FD
// set), WriteCSV — and renders the reply the handler sends. With verify
// it also checks that an S-repair satisfies its constraints.
func replay(sv *fdrepair.Solver, rq *serveReq, tr *tracer, id int64, parent int32, verify bool) (reply, error) {
	q := rq.q
	algo, ok := algoNames[q.Get("algo")]
	if !ok {
		return reply{}, fmt.Errorf("unknown algo %q", q.Get("algo"))
	}
	auto := q.Get("algo") == "auto"

	sp := tr.begin(id, "table.ingest", parent)
	tab, err := table.IngestCSV(bytes.NewReader(rq.body), "T")
	if err != nil {
		return reply{}, err
	}
	tr.end(sp, int64(tab.Len()), int64(len(rq.body)))

	sp = tr.begin(id, "spec.parse", parent)
	req, project, err := parseSpecs(tab, q, algo)
	tr.end(sp, 0, 0)
	if err != nil {
		return reply{}, err
	}

	sp = tr.begin(id, engineLayer[algo], parent)
	opts := []fdrepair.BatchOption{fdrepair.WithRequestTimeout(30 * time.Second)}
	res := sv.SolveBatch([]fdrepair.Request{req}, opts...)[0]
	ran := algo
	if auto && errors.Is(res.Err, fdrepair.ErrNoSimplification) {
		req.Algorithm = fdrepair.AlgoApproxSRepair
		res = sv.SolveBatch([]fdrepair.Request{req}, opts...)[0]
		res.Degraded = true
		ran = fdrepair.AlgoApproxSRepair
	}
	tr.end(sp, int64(tab.Len()), 0)
	if res.Err != nil {
		return reply{}, res.Err
	}

	sp = tr.begin(id, "table.write_csv", parent)
	defer func() { tr.end(sp, 0, 0) }()
	h := map[string]string{"X-Repair-Algorithm": ran.String()}
	var body bytes.Buffer
	if res.CQA != nil {
		h["X-Cqa-Certain"] = strconv.Itoa(len(res.CQA.Certain))
		h["X-Cqa-Possible"] = strconv.Itoa(len(res.CQA.Possible))
		h["X-Cqa-Repairs"] = strconv.Itoa(res.CQA.Repairs)
		fmt.Fprintln(&body, strings.Join(project, ","))
		for _, tup := range res.CQA.Certain {
			fmt.Fprintln(&body, strings.Join(tup, ","))
		}
		return reply{h, crc32.ChecksumIEEE(body.Bytes())}, nil
	}
	out, cost := res.Table, res.Cost
	if res.URepair != nil {
		out, cost = res.URepair.Update, res.URepair.Cost
		h["X-Urepair-Exact"] = strconv.FormatBool(res.URepair.Exact)
		h["X-Urepair-Ratio"] = strconv.FormatFloat(res.URepair.RatioBound, 'g', -1, 64)
		h["X-Urepair-Method"] = res.URepair.Method
	}
	h["X-Repair-Cost"] = strconv.FormatFloat(cost, 'g', -1, 64)
	h["X-Repair-Kept"] = strconv.Itoa(out.Len())
	h["X-Repair-Input-Rows"] = strconv.Itoa(tab.Len())
	h["X-Repair-Degraded"] = strconv.FormatBool(res.Degraded)
	if err := out.WriteCSV(&body); err != nil {
		return reply{}, err
	}
	if verify && !satisfies(req, out) {
		return reply{}, fmt.Errorf("%s repair violates its constraints", ran)
	}
	return reply{h, crc32.ChecksumIEEE(body.Bytes())}, nil
}

// satisfies checks a repair against the request's constraints.
func satisfies(req fdrepair.Request, out *fdrepair.Table) bool {
	switch {
	case req.Algorithm == fdrepair.AlgoCFDSRepair:
		return fdrepair.CFDSatisfies(req.CFDs, out)
	case req.Algorithm == fdrepair.AlgoDenialSRepair && len(req.Denial) > 0:
		return fdrepair.DenialSatisfies(req.Denial, out)
	default:
		return out.Satisfies(req.FDs)
	}
}

// parseSpecs builds the batch request from the query the way the
// handler does; project is the CQA projection.
func parseSpecs(tab *fdrepair.Table, q url.Values, algo fdrepair.Algorithm) (fdrepair.Request, []string, error) {
	sc := tab.Schema()
	req := fdrepair.Request{Table: tab, Algorithm: algo}
	if specs := q["fd"]; len(specs) > 0 {
		ds, err := fdrepair.ParseFDs(sc, specs...)
		if err != nil {
			return req, nil, err
		}
		req.FDs = ds
	}
	var project []string
	switch algo {
	case fdrepair.AlgoCFDSRepair:
		for _, spec := range q["cfd"] {
			c, err := fdrepair.ParseConditionalFD(sc, spec)
			if err != nil {
				return req, nil, err
			}
			req.CFDs = append(req.CFDs, c)
		}
	case fdrepair.AlgoDenialSRepair:
		for _, spec := range q["dc"] {
			c, err := fdrepair.ParseDenial(sc, spec)
			if err != nil {
				return req, nil, err
			}
			req.Denial = append(req.Denial, c)
		}
	case fdrepair.AlgoCQA:
		for _, a := range strings.Split(q.Get("project"), ",") {
			project = append(project, strings.TrimSpace(a))
		}
		query, err := fdrepair.NewCQAQuery(sc, project)
		if err != nil {
			return req, nil, err
		}
		req.Query = query
	case fdrepair.AlgoPriorityRepair:
		rel := fdrepair.NewPriority()
		for _, p := range q["prefer"] {
			a, b, _ := strings.Cut(p, ">")
			ai, errA := strconv.Atoi(a)
			bi, errB := strconv.Atoi(b)
			if err := errors.Join(errA, errB); err != nil {
				return req, nil, err
			}
			rel.Add(ai, bi)
		}
		req.Priority = rel
	}
	return req, project, nil
}
