package srepair

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/solve"
	"repro/internal/table"
	"repro/internal/workload"
)

// FuzzCoverRepair checks ExactCtx and Approx2Ctx against the seed's
// cover repairs, refExact and refApprox2, on each of Table 1's four
// hard FD sets. Row ids come from the fuzz bytes, so they need not
// ascend with row position: a cover read by position and reported by
// id, or the other way round, shows. Kept ids and cost must agree at
// workers 1 and 4.
func FuzzCoverRepair(f *testing.F) {
	// rows: 5 bytes per row (id-1, A, B, C, weight-1), at most 16 rows.
	// Ids 4, 3, 2, 1 in row order, all conflicting under A -> B or A -> C.
	f.Add([]byte{3, 0, 0, 0, 0, 2, 0, 1, 1, 1, 1, 0, 2, 0, 2, 0, 0, 0, 1, 0}, uint8(0))
	f.Add([]byte{9, 1, 0, 2, 0, 4, 1, 1, 2, 2, 0, 1, 1, 0, 1, 7, 0, 1, 2, 0}, uint8(1))
	f.Add([]byte{5, 0, 0, 0, 1, 1, 0, 1, 1, 0, 3, 1, 1, 0, 2}, uint8(2))
	f.Add([]byte{30, 2, 2, 2, 0, 0, 2, 1, 2, 1, 15, 2, 2, 1, 0, 8, 1, 2, 2, 2}, uint8(3))
	sets := workload.HardSets()
	names := slices.Sorted(maps.Keys(sets))
	f.Fuzz(func(t *testing.T, rows []byte, set uint8) {
		name := names[int(set)%len(names)]
		ds := sets[name]
		tab := table.New(ds.Schema())
		for i := 0; i+4 < len(rows) && tab.Len() < 16; i += 5 {
			id := 1 + int(rows[i]%32)
			if tab.Has(id) {
				continue
			}
			tup := table.Tuple{fmt.Sprint("a", rows[i+1]%3), fmt.Sprint("b", rows[i+2]%3), fmt.Sprint("c", rows[i+3]%3)}
			tab.MustInsert(id, tup, float64(1+rows[i+4]%4))
		}
		wantE, err := refExact(ds, tab)
		if err != nil {
			t.Fatalf("%s: seed exact: %v", name, err)
		}
		wantA, err := refApprox2(ds, tab)
		if err != nil {
			t.Fatalf("%s: seed approx: %v", name, err)
		}
		for _, w := range []int{1, 4} {
			gotE, err := ExactCtx(solve.New(w, nil, nil), ds, tab)
			if err != nil {
				t.Fatalf("%s workers=%d: exact: %v", name, w, err)
			}
			sameRepair(t, fmt.Sprintf("%s/exact workers=%d", name, w), tab, gotE, wantE)
			gotA, err := Approx2Ctx(solve.New(w, nil, nil), ds, tab)
			if err != nil {
				t.Fatalf("%s workers=%d: approx: %v", name, w, err)
			}
			sameRepair(t, fmt.Sprintf("%s/approx2 workers=%d", name, w), tab, gotA, wantA)
		}
	})
}
