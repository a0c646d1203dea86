// Package experiments implements the paper-reproduction harness: one
// runner per table/figure/worked-example of the paper, E1–E11, listed
// by `paperbench -list`. Each runner returns a formatted report
// comparing the paper's claim with the measured outcome; cmd/paperbench
// prints them and the root-level benchmarks time them.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
)

// report accumulates a titled, tab-aligned experiment report.
type report struct {
	b  strings.Builder
	tw *tabwriter.Writer
}

func newReport(id, title string) *report {
	r := &report{}
	fmt.Fprintf(&r.b, "== %s: %s ==\n", id, title)
	r.tw = tabwriter.NewWriter(&r.b, 2, 4, 2, ' ', 0)
	return r
}

func (r *report) rowf(format string, args ...interface{}) {
	fmt.Fprintf(r.tw, format+"\n", args...)
}

func (r *report) notef(format string, args ...interface{}) {
	r.tw.Flush()
	fmt.Fprintf(&r.b, format+"\n", args...)
	r.tw = tabwriter.NewWriter(&r.b, 2, 4, 2, ' ', 0)
}

func (r *report) String() string {
	r.tw.Flush()
	return r.b.String()
}

func boolMark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}

// Runner is one experiment: an id (E1–E11), the paper artifact it
// regenerates, and the function producing the report.
type Runner struct {
	ID       string
	Artifact string
	Run      func() (string, error)
}

// All returns every experiment runner in paper order.
func All() []Runner {
	return []Runner{
		{"E1", "Figure 1 / Example 2.3 (running example)", RunFig1},
		{"E2", "Table 1 (hard FD sets: exact vs 2-approx)", func() (string, error) { return RunTable1(1, 24) }},
		{"E3", "Example 3.5 + Algorithm 2 (dichotomy traces)", RunEx35},
		{"E4", "Figure 2 + Example 3.8 (five classes)", RunFig2},
		{"E5", "Theorem 3.10 (most probable database)", func() (string, error) { return RunMPD(7, 30) }},
		{"E6", "Theorem 4.10 (vertex-cover update gadget)", func() (string, error) { return RunThm410(11) }},
		{"E7", "Section 4.4 (∆k vs ∆′k approximation ratios)", func() (string, error) { return RunSec44(8) }},
		{"E8", "Corollary 4.5 (S↔U distance sandwich)", func() (string, error) { return RunCor45(13) }},
		{"E9", "Theorem 3.2 (OptSRepair scaling)", func() (string, error) { return RunScaling() }},
		{"E10", "Props 4.9/Cor 4.6/Cor 4.8 (tractable U-repairs)", func() (string, error) { return RunURepair(17) }},
		{"E11", "Lemmas A.11/A.13 + B.6/B.7 (hardness gadgets)", func() (string, error) { return RunGadgets(19) }},
		{"E12", "Section-5 extensions (counting, priorities, restricted & mixed)", func() (string, error) { return RunExtensions(23) }},
	}
}

// RunAll executes every experiment and concatenates the reports.
func RunAll() (string, error) {
	var b strings.Builder
	for _, r := range All() {
		out, err := r.Run()
		if err != nil {
			return "", fmt.Errorf("%s: %w", r.ID, err)
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// IDs returns the sorted experiment ids (for the CLI's usage text).
func IDs() []string {
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}
