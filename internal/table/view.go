package table

import (
	"fmt"
	"sort"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/solve"
)

// View is a zero-copy selection of a table's rows: the backing table
// plus a slice of row indices (positions in insertion order). The
// repair algorithms recurse over views — grouping, sub-selecting and
// weighing without materializing intermediate tables — and only the
// final repair is materialized. Views share the backing table's
// dictionary encoding, so grouping and FD checks compare cached int32
// codes instead of building string keys.
//
// View is a small value type; pass it by value. A view is invalidated
// by any mutation of the backing table.
type View struct {
	t    *Table
	rows []int32
}

// NewView returns the view of all rows of t, in insertion order.
func NewView(t *Table) View {
	rows := make([]int32, len(t.rows))
	for i := range rows {
		rows[i] = int32(i)
	}
	return View{t: t, rows: rows}
}

// ViewOfRows returns the view of t holding the given row indices. The
// slice is owned by the view afterwards.
func ViewOfRows(t *Table, rows []int32) View { return View{t: t, rows: rows} }

// ViewOfIDs returns the view of t holding the given identifiers (which
// must exist), in table insertion order (ascending row index).
func ViewOfIDs(t *Table, ids []int) (View, error) {
	rows := make([]int32, 0, len(ids))
	for _, id := range ids {
		i, ok := t.index()[id]
		if !ok {
			return View{}, fmt.Errorf("table: identifier %d not in table", id)
		}
		rows = append(rows, int32(i))
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
	return View{t: t, rows: rows}, nil
}

// Table returns the backing table.
func (v View) Table() *Table { return v.t }

// isWholeTable reports whether the view is exactly the identity
// selection 0..n-1 (length alone is not enough: a full-length view may
// be permuted or carry duplicates).
func (v View) isWholeTable() bool {
	if len(v.rows) != len(v.t.rows) {
		return false
	}
	for i, ri := range v.rows {
		if ri != int32(i) {
			return false
		}
	}
	return true
}

// Rows returns the view's row indices. The slice is shared; callers
// must not mutate it.
func (v View) Rows() []int32 { return v.rows }

// Len returns the number of rows selected by the view.
func (v View) Len() int { return len(v.rows) }

// Subview returns the zero-copy view of a subset of rows (indices into
// the backing table, typically one group of GroupBy).
func (v View) Subview(rows []int32) View { return View{t: v.t, rows: rows} }

// IDs returns the identifiers selected by the view, in view order.
func (v View) IDs() []int {
	out := make([]int, len(v.rows))
	for i, ri := range v.rows {
		out[i] = v.t.rows[ri].ID
	}
	return out
}

// TotalWeight returns the sum of the selected rows' weights.
func (v View) TotalWeight() float64 {
	var sum float64
	for _, ri := range v.rows {
		sum += v.t.rows[ri].Weight
	}
	return sum
}

// GroupBy partitions the view's rows by their projection onto attrs and
// returns one row-index slice per group, in order of first appearance
// (matching Table.GroupBy). All group slices share one backing array;
// treat them as read-only.
func (v View) GroupBy(attrs schema.AttrSet) [][]int32 {
	return v.GroupByArena(nil, attrs).Groups
}

// groupScratch is the pooled working set of one GroupByArena call: the
// dense code→local translation table, the count/start cursors, the
// flat bucket array and the group-header slice. It recycles as one
// object (a single arena Get/Put per recursion node of the repair
// engine, which visits one grouping per node).
type groupScratch struct {
	codeToLocal []int32
	counts      []int32
	starts      []int32
	flat        []int32
	out         [][]int32
}

// groupKey pools groupScratch values on the solve context.
type groupKey struct{}

// Grouping is a GroupBy result whose backing storage may come from a
// solve arena. Groups holds one row-index slice per group, in order of
// first appearance; all group slices share one backing array and must
// be treated as read-only. Release recycles the storage — after it,
// every group slice is invalid.
type Grouping struct {
	Groups [][]int32
	scr    *groupScratch // arena-owned storage; nil when not pooled
}

// Release returns the grouping's backing storage to the context arena.
// A grouping built over the cached whole-table buckets (or with a nil
// context) owns nothing and Release is a no-op. Callers returning a
// group bucket upward (or retaining one) must copy it out first.
func (g Grouping) Release(c *solve.Ctx) {
	if g.scr != nil {
		c.PutScratch(groupKey{}, g.scr)
	}
}

// GroupByArena is GroupBy drawing its scratch and result storage from
// the solve context's arena (a nil context degrades to plain
// allocation, with Release a no-op). The grouping algorithms run once
// per recursion node of the repair engine, so recycling the flat
// bucket array and the group-header slice is the difference between
// O(depth) and O(nodes) garbage on deep recursions.
func (v View) GroupByArena(c *solve.Ctx, attrs schema.AttrSet) Grouping {
	n := len(v.rows)
	if n == 0 {
		return Grouping{}
	}
	p := v.t.projection(attrs)
	if v.isWholeTable() {
		// Identity view: projection codes are already dense and in
		// first-appearance order; reuse the cached whole-table grouping
		// (shared with every other caller — never released).
		return Grouping{Groups: v.t.groupRowIndexes(p)}
	}
	if n == 1 || p.groups == 1 {
		return Grouping{Groups: [][]int32{v.rows}}
	}
	scr, _ := c.GetScratch(groupKey{}).(*groupScratch)
	if scr == nil {
		scr = new(groupScratch)
	}
	// Map whole-table codes to local group indices in first-appearance
	// order. Dense scratch when the code space is comparable to the
	// view, a map when the view selects a sliver of a huge table (the
	// dense fill would cost O(table cardinality) per block otherwise).
	var lookup func(int32) int32
	var assign func(int32, int32)
	if p.groups <= 4*n+64 {
		codeToLocal := solve.Grow(scr.codeToLocal, p.groups)
		scr.codeToLocal = codeToLocal
		for i := range codeToLocal {
			codeToLocal[i] = -1
		}
		lookup = func(c int32) int32 { return codeToLocal[c] }
		assign = func(c, l int32) { codeToLocal[c] = l }
	} else {
		codeToLocal := make(map[int32]int32, n)
		lookup = func(c int32) int32 {
			if l, ok := codeToLocal[c]; ok {
				return l
			}
			return -1
		}
		assign = func(c, l int32) { codeToLocal[c] = l }
	}
	// Pre-size the per-group counters from the projection's group bound
	// (clamped to the view: a view can't have more groups than rows) so
	// the append loop below never re-grows mid-pass on large blocks.
	bound := p.groups
	if bound > n {
		bound = n
	}
	counts := solve.Grow(scr.counts, bound)[:0]
	for _, ri := range v.rows {
		cd := p.codes[ri]
		l := lookup(cd)
		if l < 0 {
			l = int32(len(counts))
			assign(cd, l)
			counts = append(counts, 0)
		}
		counts[l]++
	}
	scr.counts = counts
	ng := len(counts)
	starts := solve.Grow(scr.starts, ng+1)
	scr.starts = starts
	starts[0] = 0
	for l := 0; l < ng; l++ {
		starts[l+1] = starts[l] + counts[l]
	}
	copy(counts, starts[:ng]) // reuse counts as fill cursors
	flat := solve.Grow(scr.flat, n)
	scr.flat = flat
	for _, ri := range v.rows {
		l := lookup(p.codes[ri])
		flat[counts[l]] = ri
		counts[l]++
	}
	out := solve.Grow(scr.out, ng)
	scr.out = out
	for l := 0; l < ng; l++ {
		out[l] = flat[starts[l]:starts[l+1]:starts[l+1]]
	}
	if c == nil {
		return Grouping{Groups: out}
	}
	return Grouping{Groups: out, scr: scr}
}

// Satisfies reports whether the selected rows satisfy every FD of the
// set, comparing cached projection codes.
func (v View) Satisfies(ds *fd.Set) bool {
	for i := 0; i < ds.Len(); i++ {
		if !v.SatisfiesFD(ds.FDAt(i)) {
			return false
		}
	}
	return true
}

// SatisfiesFD reports whether the selected rows satisfy one FD.
func (v View) SatisfiesFD(f fd.FD) bool {
	if len(v.rows) == 0 {
		return true
	}
	lhs := v.t.projection(f.LHS)
	rhs := v.t.projection(f.RHS)
	rhsOf := make([]int32, lhs.groups)
	for i := range rhsOf {
		rhsOf[i] = -1
	}
	for _, ri := range v.rows {
		l, r := lhs.codes[ri], rhs.codes[ri]
		if prev := rhsOf[l]; prev < 0 {
			rhsOf[l] = r
		} else if prev != r {
			return false
		}
	}
	return true
}

// Materialize builds the *Table holding exactly the selected rows (in
// ascending identifier order, like SubsetByIDs). The row store is
// built in bulk — one backing array for all tuple values, the id index
// left to build lazily on first lookup, no per-row validation (every
// selected row is already a valid row of the backing table) — so
// materializing a large repair result costs a copy, not n inserts.
func (v View) Materialize() *Table {
	src := v.t.rows
	ordered := v.rows
	for k := 1; k < len(ordered); k++ {
		if src[ordered[k]].ID < src[ordered[k-1]].ID {
			ordered = append([]int32(nil), v.rows...)
			sort.Slice(ordered, func(a, b int) bool { return src[ordered[a]].ID < src[ordered[b]].ID })
			break
		}
	}
	out := New(v.t.sc)
	out.fresh = v.t.fresh
	out.rows = make([]Row, len(ordered))
	arity := v.t.sc.Arity()
	vals := make([]Value, len(ordered)*arity)
	for k, ri := range ordered {
		r := src[ri]
		tup := Tuple(vals[k*arity : (k+1)*arity : (k+1)*arity])
		copy(tup, r.Tuple)
		out.rows[k] = Row{ID: r.ID, Tuple: tup, Weight: r.Weight}
		if r.ID >= out.nextID {
			out.nextID = r.ID + 1
		}
	}
	return out
}

// Without returns the subset of t without the rows drop reports, by
// row position: the view of the others, materialized.
func (t *Table) Without(drop func(ri int) bool) *Table {
	keep := make([]int32, 0, len(t.rows))
	for ri := range t.rows {
		if !drop(ri) {
			keep = append(keep, int32(ri))
		}
	}
	return ViewOfRows(t, keep).Materialize()
}
