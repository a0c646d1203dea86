package priority

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/table"
)

// FuzzPriorityCRepair checks the encoded engine against the seed
// CRepair on small tables and arbitrary relations: unknown ids,
// non-conflicting pairs, self-preferences and cycles included. Row ids
// come from the fuzz bytes, so they need not ascend with row position.
// The two must agree on failure versus success — not on which error,
// since each iterates a map and meets the problems in random order —
// and on success return byte-identical tables at workers 1 and 4.
func FuzzPriorityCRepair(f *testing.F) {
	// rows: 4 bytes per row (id-1, A, B, C); prefs: 2 bytes per pair.
	// Rows 2 (a0 b0), 3 (a0 b1) and 4 (a1 b0): 2 and 3 conflict under
	// A -> B, 4 conflicts with neither.
	three := []byte{1, 0, 0, 0, 2, 0, 1, 0, 3, 1, 0, 0}
	f.Add(three, []byte{2, 3}, uint8(0))       // valid
	f.Add(three, []byte{2, 3, 3, 2}, uint8(0)) // cycle
	f.Add(three, []byte{2, 4}, uint8(0))       // non-conflicting
	f.Add(three, []byte{2, 2}, uint8(1))       // self-preference
	f.Add(three, []byte{2, 33}, uint8(2))      // unknown id
	f.Add(three, []byte{2, 3, 4, 2}, uint8(4)) // no FDs: nothing conflicts
	// Ids 10, 5, 8, 3 in row order and 10 ≻ 5 ≻ 8: the rows ready from
	// the start are not in id order.
	f.Add([]byte{9, 0, 0, 0, 4, 0, 1, 1, 7, 0, 2, 2, 2, 1, 1, 0}, []byte{10, 5, 5, 8}, uint8(0))
	sc := schema.MustNew("R", "A", "B", "C")
	sets := []*fd.Set{
		fd.MustParseSet(sc, "A -> B"),
		fd.MustParseSet(sc, "A -> B", "B -> C"),
		fd.MustParseSet(sc, "A -> B", "A -> C"),
		fd.MustParseSet(sc, "A B -> C", "C -> A"),
		fd.MustParseSet(sc),
	}
	f.Fuzz(func(t *testing.T, rows, prefs []byte, set uint8) {
		ds := sets[int(set)%len(sets)]
		tab := table.New(sc)
		for i := 0; i+3 < len(rows) && tab.Len() < 16; i += 4 {
			id := 1 + int(rows[i]%32)
			if tab.Has(id) {
				continue
			}
			tup := table.Tuple{fmt.Sprint("a", rows[i+1]%3), fmt.Sprint("b", rows[i+2]%3), fmt.Sprint("c", rows[i+3]%3)}
			tab.MustInsert(id, tup, float64(1+rows[i+3]%3))
		}
		rel := NewRelation()
		for i := 0; i+1 < len(prefs) && i < 32; i += 2 {
			rel.Add(int(prefs[i]%34), int(prefs[i+1]%34)) // ids 0 and 33 never exist
		}
		want, seedErr := CRepair(ds, tab, rel)
		if checkErr := rel.Check(ds, tab); (checkErr == nil) != (seedErr == nil) {
			t.Fatalf("Check: %v, seed: %v", checkErr, seedErr)
		}
		for _, w := range []int{1, 4} {
			got, err := CRepairCtx(solve.New(w, nil, nil), ds, tab, rel)
			if (err == nil) != (seedErr == nil) {
				t.Fatalf("workers=%d: encoded: %v, seed: %v", w, err, seedErr)
			}
			if err == nil {
				sameTables(t, fmt.Sprintf("workers=%d", w), want, got)
			}
		}
	})
}
