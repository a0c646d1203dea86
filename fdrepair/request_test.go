package fdrepair

import (
	"net/url"
	"strings"
	"testing"
)

// TestParseRequest: the shared vocabulary fills the Request fields its
// algorithm reads, and every failure names the parameter at fault.
func TestParseRequest(t *testing.T) {
	tab := NewTable(MustSchema("T", "A", "B", "C"))
	// Rows 1 and 2 conflict under A -> B, so prefer=1>2 is valid.
	tab.MustInsert(1, Tuple{"a", "b1", "c1"}, 1)
	tab.MustInsert(2, Tuple{"a", "b2", "c1"}, 1)
	for _, tc := range []struct {
		algo    Algorithm
		params  url.Values
		wantErr string
	}{
		{AlgoAuto, url.Values{"fd": {"A -> B"}}, ""},
		{AlgoAuto, url.Values{}, "auto needs an FD set (fd)"},
		{AlgoOptimalSRepair, url.Values{"fd": {"A -> Nope"}}, "bad fd"},
		{AlgoCFDSRepair, url.Values{"cfd": {"A -> B | v1 -> _"}}, ""},
		{AlgoCFDSRepair, url.Values{"cfd": {"A -> B"}, "fd": {"A ->"}}, "bad fd"},
		{AlgoCFDSRepair, url.Values{"fd": {"A -> B"}}, "(cfd)"},
		{AlgoDenialSRepair, url.Values{"dc": {"t1.A = t2.A & t1.B != t2.B"}}, ""},
		{AlgoDenialSRepair, url.Values{"fd": {"A -> B"}}, ""},
		{AlgoDenialSRepair, url.Values{}, "(dc)"},
		{AlgoCQA, url.Values{"fd": {"A -> B"}, "project": {" B , A "}, "where": {"C=c1"}}, ""},
		{AlgoCQA, url.Values{"fd": {"A -> B"}}, "(project)"},
		{AlgoCQA, url.Values{"fd": {"A -> B"}, "project": {"A"}, "where": {"Z=1"}}, "bad where"},
		{AlgoCQA, url.Values{"fd": {"A -> B"}, "project": {"A,Z"}}, "bad query"},
		{AlgoPriorityRepair, url.Values{"fd": {"A -> B"}, "prefer": {" 1 > 2 "}}, ""},
		{AlgoPriorityRepair, url.Values{"fd": {"A -> B"}, "prefer": {"1>x"}}, "bad prefer"},
		{AlgoPriorityRepair, url.Values{"fd": {"A -> B"}, "prefer": {"1>2", "2>1"}}, "(prefer)"},
		{Algorithm(99), url.Values{"fd": {"A -> B"}}, "unknown algorithm"},
	} {
		req, err := ParseRequest(tab, tc.algo, tc.params)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v %v: %v", tc.algo, tc.params, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v %v: err %v, want %q", tc.algo, tc.params, err, tc.wantErr)
		}
		if req.Table != nil {
			t.Errorf("%v %v: failed parse returned a Request", tc.algo, tc.params)
		}
	}
	req, err := ParseRequest(tab, AlgoCQA, url.Values{"fd": {"A -> B"}, "project": {"C,A", "B"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(req.Query.Columns(), ","); got != "A,B,C" {
		t.Fatalf("Columns() = %s, want schema order A,B,C", got)
	}
	if req, _ := ParseRequest(tab, AlgoPriorityRepair, url.Values{"fd": {"A -> B"}, "prefer": {"1>2"}}); !req.Priority.Prefers(1, 2) {
		t.Fatal("prefer=1>2 not recorded")
	}
}

// FuzzParseRequest drives the whole request vocabulary — fd, cfd, dc,
// project/where and prefer — through ParseRequest over a fuzzed schema
// and algorithm name. It must never panic, and every Request it returns
// must pass its algorithm's input check. Seeds are the request examples
// of cmd/fdrepaird/README.md and the request kinds of the perfbench
// serve-mixed workload.
func FuzzParseRequest(f *testing.F) {
	const office = "facility,room,floor,city"
	for _, seed := range [][3]string{
		{office, "auto", "fd=facility+-%3E+city&fd=facility+room+-%3E+floor"},
		{office, "urepair", "fd=facility+-%3E+city"},
		{office, "cqa", "fd=facility+-%3E+city&project=facility"},
		{office, "cfd", "cfd=facility+room+-%3E+floor+%7C+HQ%2C_+-%3E+_"},
		{office, "denial", "dc=t1.room+%3D+t2.room+%26+t1.floor+%3C+t2.floor"},
		{office, "priority", "fd=facility+-%3E+city&prefer=1%3E2"},
		{"A,B,C", "auto", "fd=A+-%3E+B&fd=B+-%3E+C"},
		{"A,B,C", "exact", "fd=A+-%3E+B&algo=exact&timeout=50ms"},
		{"A,B,C", "approx", "fd=A+-%3E+C&fd=B+-%3E+C"},
		{"A,B,C", "mpd", "fd=A+-%3E+B&fd=A+B+-%3E+C"},
		{"A,B,C", "cfd", "cfd=A+-%3E+B&cfd=B+-%3E+C+%7C+v1+-%3E+_"},
		{"A,B,C", "denial", "dc=t1.A+%3D+t2.A+%26+t1.B+%21%3D+t2.B&dc=t1.B+%3D+t2.B+%26+t1.C+%21%3D+t2.C"},
		{"A,B,C", "cqa", "fd=A+-%3E+B&project=A%2CB&where=C%3Dv1"},
		{"A,B,C", "priority", "fd=A+-%3E+B&fd=A+B+-%3E+C&prefer=3%3E7&prefer=3%3E9"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, header, algoName, query string) {
		sc, err := NewSchema("T", strings.Split(header, ",")...)
		if err != nil {
			return
		}
		algo, err := ParseAlgorithm(algoName)
		if err != nil {
			return
		}
		params, _ := url.ParseQuery(query) // keep what parsed before a bad escape
		req, err := ParseRequest(NewTable(sc), algo, params)
		if err != nil {
			return
		}
		if err := req.check(); err != nil {
			t.Fatalf("ParseRequest returned a Request failing its check: %v", err)
		}
	})
}
