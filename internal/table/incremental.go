package table

// Incremental encoding maintenance for resident sessions
// (fdrepair.Session): the mutators here apply the same row/cell
// changes as AppendRows and SetCellInPlace, but instead of dropping
// the cached dictionary encoding they extend the published snapshot
// under encMu. Every cached projection codes only the new or touched
// rows, through the same interning step a build uses, against the
// dictionary or fold-key map it retains — rows already encoded are
// never re-interned. The projections are visited in ascending bitmask
// order, so each one is updated after the projections it folds.
// Downstream consumers (GroupBy, view grouping, FD checks, the block
// solver) see exactly the state a from-scratch rebuild would produce.
//
// Invariants after an incremental mutation:
//
//   - codes remain valid equality labels in [0, groups); after cell
//     updates, codes may have holes (a value whose last carrier was
//     overwritten) and their numeric order may diverge from
//     first-appearance order — groups is a bound, not a count;
//   - rowGroups is always the canonical grouping: no empty buckets,
//     buckets ordered by first row index, rows ascending within each;
//   - dictionaries and key maps only grow; vanished values keep their
//     codes, so the code space can exceed the live distinct count —
//     consumers use rowGroups for live counts and groups only as an
//     array bound.

import (
	"fmt"
	"slices"

	"repro/internal/schema"
)

// AppendRowsIncremental is AppendRows for mutating resident tables:
// the same bulk append (consecutive fresh identifiers, all-or-nothing
// validation, first assigned identifier returned), but the cached
// encoding is chunk-extended instead of invalidated — only the new
// rows are interned. On a table whose encoding is cold this degrades
// to plain AppendRows (the encoding builds canonically on demand).
func (t *Table) AppendRowsIncremental(tuples []Tuple, weights []float64) (int, error) {
	oldN := len(t.rows)
	first, err := t.appendRows(tuples, weights)
	if err != nil {
		return 0, err
	}
	t.extendEncodingAppend(oldN)
	return first, nil
}

// SetCellsIncremental applies the cell updates in place (in order;
// later updates to the same cell win) and extends the cached encoding:
// the touched rows are re-coded from their final values in every
// cached projection that mentions an updated attribute, and those
// projections' row groupings drop back to lazy. Validation is
// all-or-nothing: on error the table is unchanged.
func (t *Table) SetCellsIncremental(updates []CellUpdate) error {
	idx := t.index()
	for _, u := range updates {
		if _, ok := idx[u.ID]; !ok {
			return fmt.Errorf("table: identifier %d not in table", u.ID)
		}
		if u.Attr < 0 || u.Attr >= t.sc.Arity() {
			return fmt.Errorf("table: attribute position %d out of range", u.Attr)
		}
	}
	for _, u := range updates {
		t.rows[idx[u.ID]].Tuple[u.Attr] = u.Val
	}
	t.extendEncodingCells(updates)
	return nil
}

// extendEncodingAppend extends the published encoding (when one
// exists) with the codes of rows [oldN, len(t.rows)).
func (t *Table) extendEncodingAppend(oldN int) {
	if t.enc.Load() == nil {
		return
	}
	t.encMu.Lock()
	defer t.encMu.Unlock()
	e := t.enc.Load()
	if e == nil {
		return
	}
	if e.n != oldN {
		// The snapshot does not cover exactly the pre-append rows;
		// nothing to extend from — rebuild lazily.
		t.enc.Store(nil)
		return
	}
	next := e.clone()
	next.n = len(t.rows)
	for _, attrs := range e.sets() {
		t.extend(next, attrs, e.proj[attrs])
	}
	t.enc.Store(next)
}

// extendGroupsAppend extends an aligned grouping (bucket index == code)
// with rows [oldN, len(codes)). The bucket headers are copied — the old
// snapshot keeps its own — but bucket storage is shared: every bucket
// is full-cap sliced, so appending reallocates rather than growing into
// a sibling, and an older snapshot's shorter header never sees rows
// appended past its length.
func extendGroupsAppend(old [][]int32, codes []int32, oldN int) [][]int32 {
	groups := slices.Clone(old)
	for ri := oldN; ri < len(codes); ri++ {
		c := codes[ri]
		if int(c) < len(groups) {
			groups[c] = append(groups[c], int32(ri))
		} else {
			// New codes are assigned sequentially from len(groups), so a
			// first-seen code always lands exactly one past the end.
			groups = append(groups, []int32{int32(ri)})
		}
	}
	return groups
}

// extendEncodingCells re-codes the touched rows in the published
// encoding (when one exists), in every cached projection mentioning an
// updated attribute.
func (t *Table) extendEncodingCells(updates []CellUpdate) {
	if len(updates) == 0 || t.enc.Load() == nil {
		return
	}
	t.encMu.Lock()
	defer t.encMu.Unlock()
	e := t.enc.Load()
	if e == nil {
		return
	}
	idx := t.index()
	var touched schema.AttrSet
	rows := make([]int32, len(updates))
	for i, u := range updates {
		rows[i] = int32(idx[u.ID])
		touched = touched.Add(u.Attr)
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	next := e.clone()
	for _, attrs := range e.sets() {
		if attrs.Intersects(touched) {
			t.recode(next, attrs, e.proj[attrs], rows)
		}
	}
	t.enc.Store(next)
}

// recode stores in e a copy of p with the given rows re-coded in place
// from their current values. Duplicate or later updates to one cell
// need no care: the code comes from the tuple, not the update record.
// A re-code can orphan a code or break first-appearance order, so the
// copy's row grouping starts lazy; the next consumer rebuilds it — and
// re-derives alignment — from the re-coded labels. e must already hold
// the re-coded projections attrs folds. Caller must hold encMu and own
// e.
func (t *Table) recode(e *encoding, attrs schema.AttrSet, p *projection, rows []int32) {
	np := &projection{codes: p.codes, dict: p.dict, keys: p.keys}
	for _, ri := range rows {
		t.intern(e, attrs, np, int(ri), int(ri)+1)
	}
	e.proj[attrs] = np
}
