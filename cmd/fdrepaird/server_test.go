package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testConfig is a permissive baseline the individual tests tighten.
func testConfig() config {
	return config{
		workers:        2,
		queueDepth:     8,
		defaultTimeout: 10 * time.Second,
		maxBody:        1 << 20,
	}
}

// conflicted is a table with one A-group conflict under "A -> B": the
// optimal S-repair drops one of the first two rows (cost 1, 2 kept).
const conflicted = "id,A,B,w\n1,a1,x,1\n2,a1,y,1\n3,a2,z,1\n"

func postSolve(t *testing.T, ts *httptest.Server, query, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/solve?"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSolveRoundtrip(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	q := url.Values{"fd": {"A -> B"}}.Encode()
	resp := postSolve(t, ts, q, "", conflicted)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Repair-Cost"); got != "1" {
		t.Fatalf("X-Repair-Cost = %q, want 1", got)
	}
	if got := resp.Header.Get("X-Repair-Kept"); got != "2" {
		t.Fatalf("X-Repair-Kept = %q, want 2", got)
	}
	if got := resp.Header.Get("X-Repair-Degraded"); got != "false" {
		t.Fatalf("X-Repair-Degraded = %q", got)
	}
	// Round-trippable CSV: header + 2 rows, the consistent pair kept.
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("response CSV has %d lines, want 3:\n%s", len(lines), body)
	}
	if !strings.Contains(body, "a2,z") {
		t.Fatalf("conflict-free row missing from repair:\n%s", body)
	}
}

func TestSolveURepairAlgo(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	q := url.Values{"fd": {"A -> B"}, "algo": {"urepair"}}.Encode()
	resp := postSolve(t, ts, q, "", conflicted)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// An update repair keeps all three rows and reports its guarantee.
	if got := resp.Header.Get("X-Repair-Kept"); got != "3" {
		t.Fatalf("X-Repair-Kept = %q, want 3", got)
	}
	if resp.Header.Get("X-Urepair-Exact") == "" || resp.Header.Get("X-Urepair-Method") == "" {
		t.Fatalf("U-repair guarantee headers missing: %v", resp.Header)
	}
}

func TestSolveAutoDegradesHardFDSet(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// "A -> B","B -> C" is on the hard side of the S-repair dichotomy:
	// optimal refuses, auto degrades to the 2-approximation.
	tab := "id,A,B,C,w\n1,a,b,c,1\n2,a,b2,c,1\n"
	hard := url.Values{"fd": {"A -> B", "B -> C"}}

	resp := postSolve(t, ts, hard.Encode(), "", tab)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto on hard set: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Repair-Degraded") != "true" {
		t.Fatal("auto on hard set did not mark degraded")
	}
	if resp.Header.Get("X-Repair-Algorithm") != "approx-srepair" {
		t.Fatalf("degraded algo = %q", resp.Header.Get("X-Repair-Algorithm"))
	}

	// algo=optimal on the same set is an explicit client error.
	hard.Set("algo", "optimal")
	resp = postSolve(t, ts, hard.Encode(), "", tab)
	readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("optimal on hard set: status %d, want 422", resp.StatusCode)
	}
}

func TestSolveBadRequests(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for _, tc := range []struct {
		name, query, body string
	}{
		{"no fd", "", conflicted},
		{"bad fd", url.Values{"fd": {"A -> Nope"}}.Encode(), conflicted},
		{"bad algo", url.Values{"fd": {"A -> B"}, "algo": {"quantum"}}.Encode(), conflicted},
		{"bad timeout", url.Values{"fd": {"A -> B"}, "timeout": {"soon"}}.Encode(), conflicted},
		{"bad csv", url.Values{"fd": {"A -> B"}}.Encode(), "id,A,B\n1,only-two"},
		{"prefer unknown id", url.Values{"fd": {"A -> B"}, "algo": {"priority"}, "prefer": {"1>99"}}.Encode(), conflicted},
		{"prefer non-conflicting", url.Values{"fd": {"A -> B"}, "algo": {"priority"}, "prefer": {"1>3"}}.Encode(), conflicted},
		{"prefer cycle", url.Values{"fd": {"A -> B"}, "algo": {"priority"}, "prefer": {"1>2", "2>1"}}.Encode(), conflicted},
		{"NaN weight", url.Values{"fd": {"A -> B"}}.Encode(), "id,A,B,w\n1,a,x,NaN\n2,b,y,1\n"},
		{"+Inf weight", url.Values{"fd": {"A -> B"}}.Encode(), "id,A,B,w\n1,a,x,+Inf\n2,b,y,1\n"},
	} {
		resp := postSolve(t, ts, tc.query, "", tc.body)
		readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if got := checkOutcomes(t, ts); got["rejected"] != 10 {
		t.Fatalf("rejected = %d, want 10", got["rejected"])
	}
}

// checkOutcomes scrapes the {outcome=...} series from /metrics and
// checks that every admitted request ended in exactly one completion
// outcome.
func checkOutcomes(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		rest, ok := strings.CutPrefix(line, `fdrepaird_requests_total{outcome="`)
		if !ok {
			continue
		}
		name, val, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		got[name] = v
	}
	done := got["rejected"] + got["completed"] + got["failed"] + got["deadline_exceeded"] + got["panicked"]
	if got["admitted"] != done {
		t.Fatalf("admitted = %d, completion outcomes sum to %d: %v", got["admitted"], done, got)
	}
	return got
}

// TestSolveBodyTooLarge: a body over -max-body is refused with 413,
// never repaired as its truncated prefix; a body of exactly the cap is
// solved.
func TestSolveBodyTooLarge(t *testing.T) {
	cfg := testConfig()
	cfg.maxBody = 15
	s := newServer(cfg)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	q := url.Values{"fd": {"A -> B"}}.Encode()
	over := "A,B\nx1,y1\nx2,y22\n" // 17 bytes; the first 15 parse as a valid table
	resp := postSolve(t, ts, q, "", over)
	if body := readAll(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body under a 15-byte cap: status %d, want 413: %s", len(over), resp.StatusCode, body)
	}

	exact := "A,B\nx1,y1\nx2,y2" // 15 bytes
	resp = postSolve(t, ts, q, "", exact)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d-byte body under a 15-byte cap: status %d: %s", len(exact), resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Repair-Input-Rows"); got != "2" {
		t.Fatalf("X-Repair-Input-Rows = %q, want 2", got)
	}
	if got := checkOutcomes(t, ts); got["rejected"] != 1 || got["completed"] != 1 {
		t.Fatalf("rejected = %d, completed = %d; want 1 and 1", got["rejected"], got["completed"])
	}
}

// TestSolveCQAColumnsSchemaOrder: CQA answers list their values in
// schema order, so the reply's header row names the columns in that
// order whatever order project= lists them in; spaces around names are
// trimmed.
func TestSolveCQAColumnsSchemaOrder(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Under A -> B, rows 1 and 2 conflict; (a2,z) is certain.
	for _, project := range []string{"B,A", "A, B", "B , A"} {
		q := url.Values{"fd": {"A -> B"}, "algo": {"cqa"}, "project": {project}}.Encode()
		resp := postSolve(t, ts, q, "", conflicted)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("project=%q: status %d: %s", project, resp.StatusCode, body)
		}
		if want := "A,B\na2,z\n"; body != want {
			t.Errorf("project=%q: body %q, want %q", project, body, want)
		}
	}
}

// TestSolveParamsParseUnderEveryAlgo: every parameter present must
// parse, whether or not the algorithm reads it — a malformed fd under
// algo=cfd is a 400, not silently ignored.
func TestSolveParamsParseUnderEveryAlgo(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	cfd := url.Values{"algo": {"cfd"}, "cfd": {"A -> B"}}
	resp := postSolve(t, ts, cfd.Encode(), "", conflicted)
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("cfd: status %d: %s", resp.StatusCode, body)
	}
	cfd.Set("fd", "A -> Nope")
	resp = postSolve(t, ts, cfd.Encode(), "", conflicted)
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "bad fd") {
		t.Fatalf("cfd with malformed fd: status %d: %s", resp.StatusCode, body)
	}
}

// TestSolveAlgoNamesFromTable: algo= takes every table alias and
// canonical name; an unknown one is a 400 listing the aliases; auto
// requests count under their own {algo="auto"} series.
func TestSolveAlgoNamesFromTable(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for _, algo := range []string{"optimal", "optimal-srepair", "approx-srepair", "auto"} {
		q := url.Values{"fd": {"A -> B"}, "algo": {algo}}.Encode()
		resp := postSolve(t, ts, q, "", conflicted)
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("algo=%s: status %d: %s", algo, resp.StatusCode, body)
		}
	}
	resp := postSolve(t, ts, url.Values{"fd": {"A -> B"}, "algo": {"quantum"}}.Encode(), "", conflicted)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "optimal|exact|approx|urepair|mpd|cfd|denial|cqa|priority|auto") {
		t.Fatalf("unknown algo: status %d: %s", resp.StatusCode, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	for _, want := range []string{
		`fdrepaird_requests_total{algo="optimal-srepair"} 2`,
		`fdrepaird_requests_total{algo="approx-srepair"} 1`,
		`fdrepaird_requests_total{algo="auto"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestQueueShedding(t *testing.T) {
	cfg := testConfig()
	cfg.queueDepth = 1
	s := newServer(cfg)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Occupy the single queue slot directly; the next request must be
	// shed with 429 + Retry-After rather than block.
	s.sem <- struct{}{}
	resp := postSolve(t, ts, url.Values{"fd": {"A -> B"}}.Encode(), "", conflicted)
	readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	<-s.sem
	resp = postSolve(t, ts, url.Values{"fd": {"A -> B"}}.Encode(), "", conflicted)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after slot freed: status %d", resp.StatusCode)
	}
}

func TestTenantQuota(t *testing.T) {
	cfg := testConfig()
	cfg.tenantRate = 0.0001 // effectively no refill within the test
	cfg.tenantBurst = 2
	s := newServer(cfg)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	q := url.Values{"fd": {"A -> B"}}.Encode()
	for i := 0; i < 2; i++ {
		resp := postSolve(t, ts, q, "team-a", conflicted)
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("team-a request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := postSolve(t, ts, q, "team-a", conflicted)
	readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("team-a over burst: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota response missing Retry-After")
	}
	// Quotas are per tenant: team-b is unaffected.
	resp = postSolve(t, ts, q, "team-b", conflicted)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("team-b: status %d", resp.StatusCode)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	get := func(path string) *http.Response {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		return resp
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", resp.StatusCode)
	}

	s.startDrain()
	if resp := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", resp.StatusCode)
	}
	// Liveness stays green — the process is healthy, just not admitting.
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: %d", resp.StatusCode)
	}
	resp := postSolve(t, ts, url.Values{"fd": {"A -> B"}}.Encode(), "", conflicted)
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/solve during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed missing Retry-After")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// One completed solve and one shed request, then scrape.
	resp := postSolve(t, ts, url.Values{"fd": {"A -> B"}}.Encode(), "", conflicted)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	s.startDrain()
	resp = postSolve(t, ts, url.Values{"fd": {"A -> B"}}.Encode(), "", conflicted)
	readAll(t, resp)
	s.draining.Store(false)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		`fdrepaird_requests_total{outcome="admitted"} 1`,
		`fdrepaird_requests_total{outcome="completed"} 1`,
		`fdrepaird_requests_total{outcome="shed_draining"} 1`,
		`fdrepaird_requests_total{outcome="panicked"} 0`,
		"fdrepaird_solve_nodes_total",
		"fdrepaird_solve_panics_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestRetryAfterRounding(t *testing.T) {
	for _, tc := range []struct {
		in   time.Duration
		want string
	}{
		{0, "1"},
		{200 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1700 * time.Millisecond, "2"},
	} {
		if got := retryAfter(tc.in); got != tc.want {
			t.Errorf("retryAfter(%v) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestQuotaRefill(t *testing.T) {
	q := newQuotas(10, 1) // 10 tokens/s, burst 1
	now := time.Unix(0, 0)
	q.now = func() time.Time { return now }

	if ok, _ := q.allow("t"); !ok {
		t.Fatal("first request denied")
	}
	ok, wait := q.allow("t")
	if ok {
		t.Fatal("bucket not drained after burst")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("wait = %v, want (0, 100ms]", wait)
	}
	now = now.Add(100 * time.Millisecond) // exactly one token refilled
	if ok, _ := q.allow("t"); !ok {
		t.Fatal("request denied after refill")
	}
	// The bucket never exceeds burst.
	now = now.Add(time.Hour)
	if ok, _ := q.allow("t"); !ok {
		t.Fatal("denied after long idle")
	}
	if ok, _ := q.allow("t"); ok {
		t.Fatal("burst cap not enforced after long idle")
	}
}
