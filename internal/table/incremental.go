package table

// Incremental encoding maintenance for resident sessions
// (fdrepair.Session): the mutators here apply the same row/cell
// changes as AppendRows and SetCellInPlace, but instead of dropping
// the cached dictionary encoding they extend the published snapshot
// under encMu. New rows are interned against the retained per-column
// dictionaries and per-projection key maps — columns already encoded
// are never re-interned — and every affected projection's row grouping
// is rebuilt in canonical first-appearance order, so downstream
// consumers (GroupBy, view grouping, FD checks, the block solver) see
// exactly the state a from-scratch rebuild would produce.
//
// Invariants after an incremental mutation:
//
//   - codes remain valid equality labels in [0, groups); after cell
//     updates, codes may have holes (a value whose last carrier was
//     overwritten) and their numeric order may diverge from
//     first-appearance order — groups is a bound, not a count;
//   - rowGroups is always the canonical grouping: no empty buckets,
//     buckets ordered by first row index, rows ascending within each;
//   - dictionaries only grow; vanished values keep their codes, so the
//     code space can exceed the live distinct count — consumers use
//     rowGroups for live counts and groups only as an array bound.

import (
	"fmt"
	"math/bits"
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
// final cell values are interned into the retained dictionaries, the
// touched rows are re-coded in every cached projection that mentions
// an updated attribute, and those projections' row groupings are
// rebuilt canonically. Validation is all-or-nothing: on error the
// table is unchanged.
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
	n := len(t.rows)
	if e.n != oldN {
		// The snapshot does not cover exactly the pre-append rows;
		// nothing to extend from — rebuild lazily.
		t.enc.Store(nil)
		return
	}
	next := e.clone(t.sc.Arity())
	next.n = n
	// Intern the new rows into every built column. Appending within
	// capacity mutates storage beyond the old snapshot's length only,
	// so a reader of the old snapshot (already undefined during a
	// mutation) still sees its own consistent prefix.
	for a := range next.cols {
		col := next.cols[a]
		if col == nil {
			continue
		}
		dict := next.dicts[a]
		for ri := oldN; ri < n; ri++ {
			v := t.rows[ri].Tuple[a]
			c, ok := dict[v]
			if !ok {
				c = int32(len(dict))
				dict[v] = c
			}
			col = append(col, c)
		}
		next.cols[a] = col
		next.card[a] = len(dict)
	}
	for attrs, p := range e.proj {
		next.proj[attrs] = t.extendProjectionAppend(next, p, attrs, oldN)
	}
	t.enc.Store(next)
}

// extendProjectionAppend returns the projection extended with codes
// for rows [oldN, n). Caller holds encMu and owns next (columns
// already extended).
func (t *Table) extendProjectionAppend(next *encoding, p *projection, attrs schema.AttrSet, oldN int) *projection {
	n := len(t.rows)
	pos := attrs.Positions()
	var np *projection
	switch {
	case len(pos) == 0:
		np = &projection{codes: make([]int32, n), groups: 1}
	case len(pos) == 1:
		// Single attribute: the projection is the column itself (built
		// above when it existed, from scratch when the projection was
		// cached over an empty table).
		col := t.column(next, pos[0])
		np = &projection{codes: col, groups: next.card[pos[0]]}
	case p.seen == nil && p.sseen == nil:
		// Cached over an empty table: no retained key state to extend.
		return t.buildProjection(next, attrs)
	case p.sseen != nil:
		codes := p.codes
		for ri := oldN; ri < n; ri++ {
			k := KeyOf(t.rows[ri].Tuple, attrs)
			c, ok := p.sseen[k]
			if !ok {
				c = int32(len(p.sseen))
				p.sseen[k] = c
			}
			codes = append(codes, c)
		}
		np = &projection{codes: codes, groups: len(p.sseen), sseen: p.sseen}
	default:
		// Packed keys: when a dictionary outgrew its bit width the packed
		// keys change meaning, so the projection rebuilds from scratch —
		// rare (a width grows only when that column's dictionary doubles),
		// so the O(n) rebuild amortizes over the appends that caused it.
		for i, a := range pos {
			if uint(bits.Len(uint(next.card[a]-1))) > p.width[i] {
				return t.buildProjection(next, attrs)
			}
		}
		codes := p.codes
		for ri := oldN; ri < n; ri++ {
			var key uint64
			for i, a := range pos {
				key = key<<p.width[i] | uint64(next.cols[a][ri])
			}
			c, ok := p.seen[key]
			if !ok {
				c = int32(len(p.seen))
				p.seen[key] = c
			}
			codes = append(codes, c)
		}
		np = &projection{codes: codes, groups: len(p.seen), width: p.width, seen: p.seen}
	}
	if g := p.rg.Load(); g != nil && g.aligned {
		// Pure appends keep an aligned grouping canonical by
		// construction: an existing code's rows extend its bucket (row
		// indices ascending), and new codes are assigned sequentially so
		// their buckets land at the end in first-appearance order.
		// Extend by direct bucket indexing instead of rebuilding O(n).
		// A grouping that was never materialized (or lost alignment to a
		// cell recode) stays lazy — the next consumer rebuilds it.
		np.rg.Store(&rowGrouping{buckets: extendGroupsAppend(g.buckets, np.codes, oldN), aligned: true})
	}
	return np
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

// extendEncodingCells re-codes the touched cells in the published
// encoding (when one exists): columns first, then every cached
// projection mentioning an updated attribute.
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
	next := e.clone(t.sc.Arity())
	idx := t.index()
	// Intern the final value of every touched cell. Duplicate
	// (row, attr) pairs are idempotent: the code comes from the tuple's
	// current value, not the update record, so later-wins is automatic.
	var touchedAttrs schema.AttrSet
	rowSet := make(map[int32]struct{}, len(updates))
	for _, u := range updates {
		ri := int32(idx[u.ID])
		rowSet[ri] = struct{}{}
		touchedAttrs = touchedAttrs.Add(u.Attr)
		col := next.cols[u.Attr]
		if col == nil {
			continue // column never encoded; builds canonically on demand
		}
		dict := next.dicts[u.Attr]
		v := t.rows[ri].Tuple[u.Attr]
		c, ok := dict[v]
		if !ok {
			c = int32(len(dict))
			dict[v] = c
		}
		col[ri] = c
		next.card[u.Attr] = len(dict)
	}
	rows := make([]int32, 0, len(rowSet))
	for ri := range rowSet {
		rows = append(rows, ri)
	}
	slices.Sort(rows)
	for attrs, p := range e.proj {
		if !attrs.Intersects(touchedAttrs) {
			continue // codes and grouping unaffected
		}
		next.proj[attrs] = t.recodeProjectionRows(next, p, attrs, rows)
	}
	t.enc.Store(next)
}

// recodeProjectionRows recomputes the projection codes of the given
// rows from the (already updated) columns and rebuilds the canonical
// row grouping. Caller holds encMu and owns next.
func (t *Table) recodeProjectionRows(next *encoding, p *projection, attrs schema.AttrSet, rows []int32) *projection {
	pos := attrs.Positions()
	var np *projection
	switch {
	case len(pos) == 1:
		if next.cols[pos[0]] == nil {
			return t.buildProjection(next, attrs)
		}
		np = &projection{codes: next.cols[pos[0]], groups: next.card[pos[0]]}
	case p.sseen != nil:
		for _, ri := range rows {
			k := KeyOf(t.rows[ri].Tuple, attrs)
			c, ok := p.sseen[k]
			if !ok {
				c = int32(len(p.sseen))
				p.sseen[k] = c
			}
			p.codes[ri] = c
		}
		np = &projection{codes: p.codes, groups: len(p.sseen), sseen: p.sseen}
	case p.seen == nil:
		// No retained key state (cached over an empty table).
		return t.buildProjection(next, attrs)
	default:
		for i, a := range pos {
			if uint(bits.Len(uint(next.card[a]-1))) > p.width[i] {
				return t.buildProjection(next, attrs)
			}
		}
		for _, ri := range rows {
			var key uint64
			for i, a := range pos {
				key = key<<p.width[i] | uint64(next.cols[a][ri])
			}
			c, ok := p.seen[key]
			if !ok {
				c = int32(len(p.seen))
				p.seen[key] = c
			}
			p.codes[ri] = c
		}
		np = &projection{codes: p.codes, groups: len(p.seen), width: p.width, seen: p.seen}
	}
	// Cell recodes can orphan a code or break first-appearance order, so
	// the grouping is dropped back to lazy; the next consumer rebuilds
	// the grouping — and re-derives alignment — from the recoded labels.
	return np
}
