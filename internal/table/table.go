// Package table implements the paper's data model: a single table whose
// tuples carry identifiers and positive finite weights. Duplicate
// tuples (with distinct identifiers) are allowed. The package provides
// consistency checking against FD sets, FD-violation enumeration,
// conflict graphs, the two repair distances dist_sub and dist_upd, and
// builders for subsets and updates.
package table

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fd"
	"repro/internal/schema"
)

// Value is an attribute value. Values beginning with the reserved rune
// '\x00' are fresh constants generated by Fresh and may not be inserted
// directly.
type Value = string

// freshPrefix marks generated fresh constants; user values may not start
// with it, which guarantees fresh constants never collide with the
// active domain.
const freshPrefix = "\x00⊥"

// Tuple is a sequence of values conforming to a schema.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports whether two tuples agree on every attribute.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Hamming returns the Hamming distance H(t, u): the number of attributes
// on which the tuples disagree. Panics if arities differ.
func (t Tuple) Hamming(u Tuple) int {
	if len(t) != len(u) {
		panic("table: Hamming distance of tuples with different arities")
	}
	d := 0
	for i := range t {
		if t[i] != u[i] {
			d++
		}
	}
	return d
}

// Row is one identified, weighted tuple of a table.
type Row struct {
	ID     int
	Tuple  Tuple
	Weight float64
}

// Table is a weighted table with tuple identifiers over a fixed schema.
type Table struct {
	sc     *schema.Schema
	rows   []Row
	fresh  int // counter for generated fresh constants
	nextID int // watermark: every identifier ≥ nextID is unused

	// byID is the id → row-index map, built lazily under idMu: tables
	// produced in bulk (Clone, View.Materialize) are mostly read
	// positionally — a repair result that is only printed or distanced
	// never pays for the map. Mutators update the map in place when it
	// exists (they require exclusive access anyway); concurrent readers
	// go through index(), which double-checks under the mutex.
	byID atomic.Pointer[map[int]int]
	idMu sync.Mutex

	encMu sync.Mutex               // serializes encoding builds
	enc   atomic.Pointer[encoding] // published immutable snapshot
}

// New returns an empty table over the schema.
func New(sc *schema.Schema) *Table {
	if sc == nil {
		panic("table: nil schema")
	}
	return &Table{sc: sc, nextID: 1}
}

// index returns the id → row-index map, building and publishing it on
// first use.
func (t *Table) index() map[int]int {
	if m := t.byID.Load(); m != nil {
		return *m
	}
	t.idMu.Lock()
	defer t.idMu.Unlock()
	if m := t.byID.Load(); m != nil {
		return *m
	}
	m := make(map[int]int, len(t.rows))
	for i, r := range t.rows {
		m[r.ID] = i
	}
	t.byID.Store(&m)
	return m
}

// Schema returns the schema of the table.
func (t *Table) Schema() *schema.Schema { return t.sc }

// Len returns |T|, the number of tuple identifiers.
func (t *Table) Len() int { return len(t.rows) }

// Insert adds a tuple with an explicit identifier and a positive
// finite weight.
func (t *Table) Insert(id int, tup Tuple, weight float64) error {
	if len(tup) != t.sc.Arity() {
		return fmt.Errorf("table: tuple arity %d does not match schema %s", len(tup), t.sc)
	}
	if err := checkWeight(id, weight); err != nil {
		return err
	}
	idx := t.index()
	if _, dup := idx[id]; dup {
		return fmt.Errorf("table: duplicate tuple identifier %d", id)
	}
	for _, v := range tup {
		if strings.HasPrefix(v, "\x00") && !strings.HasPrefix(v, freshPrefix) {
			return fmt.Errorf("table: tuple %d uses a reserved value", id)
		}
	}
	idx[id] = len(t.rows)
	t.rows = append(t.rows, Row{ID: id, Tuple: tup.Clone(), Weight: weight})
	if id >= t.nextID {
		t.nextID = id + 1
	}
	t.invalidate()
	return nil
}

// checkWeight is the weight rule of Insert, AppendRows and
// ChunkedBuilder.Append: positive and finite. NaN and +Inf would pass a
// plain w > 0 test, and no repair cost over them compares equal.
func checkWeight(id int, w float64) error {
	if w > 0 && !math.IsInf(w, 1) {
		return nil
	}
	return fmt.Errorf("table: tuple %d has weight %v, not a positive finite number", id, w)
}

// MustInsert is Insert that panics on error; for tests and fixed data.
func (t *Table) MustInsert(id int, tup Tuple, weight float64) {
	if err := t.Insert(id, tup, weight); err != nil {
		panic(err)
	}
}

// Append adds a tuple with the next unused identifier and returns it.
// The identifier comes from a high-watermark maintained by Insert, so
// the probe is O(1) regardless of the identifiers inserted so far.
func (t *Table) Append(tup Tuple, weight float64) (int, error) {
	id := t.nextID
	return id, t.Insert(id, tup, weight)
}

// AppendRows bulk-appends one row per tuple, with consecutive fresh
// identifiers from the high-watermark, and returns the first assigned
// identifier. weights is either nil (every weight 1) or one positive
// finite weight per tuple. Validation is all-or-nothing: on error the
// table is unchanged. Compared to a loop of Insert/Append calls, the
// row slice is grown once, and the cached encoding is invalidated once
// at the end instead of per row — workload generators building tables
// of 10⁵+ rows should hand their rows over in one call.
func (t *Table) AppendRows(tuples []Tuple, weights []float64) (int, error) {
	first, err := t.appendRows(tuples, weights)
	if err != nil {
		return 0, err
	}
	t.invalidate()
	return first, nil
}

// appendRows is the validation + insertion core shared by AppendRows
// (which invalidates the cached encoding) and AppendRowsIncremental
// (which extends it).
func (t *Table) appendRows(tuples []Tuple, weights []float64) (int, error) {
	if weights != nil && len(weights) != len(tuples) {
		return 0, fmt.Errorf("table: AppendRows got %d weights for %d tuples", len(weights), len(tuples))
	}
	for i, tup := range tuples {
		if len(tup) != t.sc.Arity() {
			return 0, fmt.Errorf("table: tuple %d arity %d does not match schema %s", i, len(tup), t.sc)
		}
		if weights != nil {
			if err := checkWeight(i, weights[i]); err != nil {
				return 0, err
			}
		}
		for _, v := range tup {
			if strings.HasPrefix(v, "\x00") && !strings.HasPrefix(v, freshPrefix) {
				return 0, fmt.Errorf("table: tuple %d uses a reserved value", i)
			}
		}
	}
	first := t.nextID
	// Amortized growth: a resident table absorbing a stream of small
	// appends must not re-copy the whole row store per batch.
	t.rows = slices.Grow(t.rows, len(tuples))
	idx := t.byID.Load() // extend in place only if already built
	arity := t.sc.Arity()
	vals := make([]Value, len(tuples)*arity) // one backing array for all copies
	for i, tup := range tuples {
		id := t.nextID
		t.nextID++
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if idx != nil {
			(*idx)[id] = len(t.rows)
		}
		cp := Tuple(vals[i*arity : (i+1)*arity : (i+1)*arity])
		copy(cp, tup)
		t.rows = append(t.rows, Row{ID: id, Tuple: cp, Weight: w})
	}
	return first, nil
}

// MustAppendRows is AppendRows that panics on error; for generators
// and fixed data.
func (t *Table) MustAppendRows(tuples []Tuple, weights []float64) int {
	first, err := t.AppendRows(tuples, weights)
	if err != nil {
		panic(err)
	}
	return first
}

// Rows returns the rows in insertion order. The returned slice is shared;
// callers must not mutate it.
func (t *Table) Rows() []Row { return t.rows }

// IDs returns the tuple identifiers in insertion order.
func (t *Table) IDs() []int {
	out := make([]int, len(t.rows))
	for i, r := range t.rows {
		out[i] = r.ID
	}
	return out
}

// Has reports whether the identifier is present.
func (t *Table) Has(id int) bool { _, ok := t.index()[id]; return ok }

// Row returns the row with the given identifier.
func (t *Table) Row(id int) (Row, bool) {
	i, ok := t.index()[id]
	if !ok {
		return Row{}, false
	}
	return t.rows[i], true
}

// Weight returns w_T(id); zero if the identifier is absent.
func (t *Table) Weight(id int) float64 {
	if r, ok := t.Row(id); ok {
		return r.Weight
	}
	return 0
}

// TotalWeight returns w_T(T): the sum of all tuple weights.
func (t *Table) TotalWeight() float64 {
	var sum float64
	for _, r := range t.rows {
		sum += r.Weight
	}
	return sum
}

// Clone returns a deep copy of the table (sharing nothing; the lazy
// dictionary encoding is not copied).
func (t *Table) Clone() *Table {
	out := New(t.sc)
	out.fresh = t.fresh
	out.rows = make([]Row, len(t.rows))
	vals := make([]Value, len(t.rows)*t.sc.Arity())
	arity := t.sc.Arity()
	for i, r := range t.rows {
		tup := Tuple(vals[i*arity : (i+1)*arity : (i+1)*arity])
		copy(tup, r.Tuple)
		out.rows[i] = Row{ID: r.ID, Tuple: tup, Weight: r.Weight}
	}
	out.nextID = t.nextID
	return out
}

// Fresh returns a new value guaranteed not to occur in any table (user
// values may not start with the reserved prefix).
func (t *Table) Fresh() Value {
	t.fresh++
	return freshPrefix + strconv.Itoa(t.fresh)
}

// IsDuplicateFree reports whether distinct identifiers always carry
// distinct tuples.
func (t *Table) IsDuplicateFree() bool {
	if len(t.rows) == 0 {
		return true
	}
	p := t.projection(t.sc.AllAttrs())
	// rowGroups counts the groups rows actually carry; after incremental
	// cell updates p.groups is only an upper bound on the codes.
	return len(t.grouping(p).buckets) == len(t.rows)
}

// IsUnweighted reports whether all tuple weights are equal.
func (t *Table) IsUnweighted() bool {
	for i := 1; i < len(t.rows); i++ {
		if !weightEq(t.rows[i].Weight, t.rows[0].Weight) {
			return false
		}
	}
	return true
}

// KeyOf encodes the projection of a tuple onto an attribute set as a
// collision-free string key (length-prefixed concatenation).
func KeyOf(tup Tuple, attrs schema.AttrSet) string {
	var b strings.Builder
	for _, p := range attrs.Positions() {
		v := tup[p]
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// Group is one block of a grouping: the common projection key and the
// identifiers of the rows sharing it, in insertion order.
type Group struct {
	Key string
	IDs []int
}

// GroupBy partitions the rows by their projection onto attrs. Groups are
// returned in order of first appearance, which keeps every downstream
// algorithm deterministic. Grouping runs on the dictionary encoding:
// rows are bucketed by cached int32 projection codes, and only one
// string key per group (not per row) is materialized.
func (t *Table) GroupBy(attrs schema.AttrSet) []Group {
	if len(t.rows) == 0 {
		return nil
	}
	p := t.projection(attrs)
	rowGroups := t.groupRowIndexes(p)
	ids := make([]int, len(t.rows))
	out := make([]Group, len(rowGroups))
	at := 0
	for g, rows := range rowGroups {
		start := at
		for _, ri := range rows {
			ids[at] = t.rows[ri].ID
			at++
		}
		// One string key per group (not per row).
		out[g] = Group{Key: KeyOf(t.rows[rows[0]].Tuple, attrs), IDs: ids[start:at:at]}
	}
	return out
}

// SubsetByIDs returns the subset of t holding exactly the given
// identifiers (which must exist), preserving tuples and weights.
func (t *Table) SubsetByIDs(ids []int) (*Table, error) {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	out := New(t.sc)
	out.fresh = t.fresh
	for _, id := range sorted {
		r, ok := t.Row(id)
		if !ok {
			return nil, fmt.Errorf("table: identifier %d not in table", id)
		}
		out.MustInsert(r.ID, r.Tuple, r.Weight)
	}
	return out, nil
}

// MustSubsetByIDs is SubsetByIDs that panics on error.
func (t *Table) MustSubsetByIDs(ids []int) *Table {
	s, err := t.SubsetByIDs(ids)
	if err != nil {
		panic(err)
	}
	return s
}

// IsSubsetOf reports whether s is a subset of t in the paper's sense:
// ids(s) ⊆ ids(t) with identical tuples and weights.
func (s *Table) IsSubsetOf(t *Table) bool {
	if !s.sc.SameAs(t.sc) {
		return false
	}
	for _, r := range s.rows {
		tr, ok := t.Row(r.ID)
		if !ok || !tr.Tuple.Equal(r.Tuple) || !weightEq(tr.Weight, r.Weight) {
			return false
		}
	}
	return true
}

// IsUpdateOf reports whether u is an update of t: same identifiers and
// weights, arbitrary values.
func (u *Table) IsUpdateOf(t *Table) bool {
	if !u.sc.SameAs(t.sc) || u.Len() != t.Len() {
		return false
	}
	for _, r := range u.rows {
		tr, ok := t.Row(r.ID)
		if !ok || !weightEq(tr.Weight, r.Weight) {
			return false
		}
	}
	return true
}

// DistSub returns dist_sub(s, t): the weight of the tuples of t missing
// from the subset s. It panics if s is not a subset of t.
//
// When s lists its rows in t's order, as every engine's kept-position
// result does, one walk of both row lists by id proves the subset and
// sums the deleted weights; otherwise the id maps of IsSubsetOf and Has
// do. Both paths sum in t's order, so their results are bit-identical.
func DistSub(s, t *Table) float64 {
	if sum, ok := distSubInOrder(s, t); ok {
		return sum
	}
	if !s.IsSubsetOf(t) {
		panic("table: DistSub of a non-subset")
	}
	var sum float64
	for _, r := range t.rows {
		if !s.Has(r.ID) {
			sum += r.Weight
		}
	}
	return sum
}

// distSubInOrder is DistSub's walk: each row of s must match the next
// row of t with its id, with an equal tuple and weight. ok is false
// when that fails — s is not in t's order, or not a subset at all.
func distSubInOrder(s, t *Table) (sum float64, ok bool) {
	if !s.sc.SameAs(t.sc) {
		return 0, false
	}
	k := 0
	for _, r := range t.rows {
		if k < len(s.rows) && s.rows[k].ID == r.ID {
			if sr := s.rows[k]; !sr.Tuple.Equal(r.Tuple) || !weightEq(sr.Weight, r.Weight) {
				return 0, false
			}
			k++
			continue
		}
		sum += r.Weight
	}
	return sum, k == len(s.rows)
}

// DistUpd returns dist_upd(u, t): the weighted Hamming distance between
// the update u and t. It panics if u is not an update of t.
func DistUpd(u, t *Table) float64 {
	if !u.IsUpdateOf(t) {
		panic("table: DistUpd of a non-update")
	}
	var sum float64
	for _, r := range t.rows {
		ur, _ := u.Row(r.ID)
		sum += r.Weight * float64(r.Tuple.Hamming(ur.Tuple))
	}
	return sum
}

// SetCell returns a copy of the table with the given cell changed. The
// receiver is unchanged (tables behave immutably across the repair
// algorithms). Clone preserves row order, so the looked-up index is
// valid in the copy.
func (t *Table) SetCell(id, attr int, v Value) (*Table, error) {
	i, ok := t.index()[id]
	if !ok {
		return nil, fmt.Errorf("table: identifier %d not in table", id)
	}
	if attr < 0 || attr >= t.sc.Arity() {
		return nil, fmt.Errorf("table: attribute position %d out of range", attr)
	}
	out := t.Clone()
	out.rows[i].Tuple[attr] = v
	return out, nil
}

// CellUpdate is one cell assignment for SetCells.
type CellUpdate struct {
	ID   int
	Attr int
	Val  Value
}

// SetCells returns a copy of the table with every given cell changed,
// cloning the table once instead of once per cell. Updates are applied
// in order; later updates to the same cell win.
func (t *Table) SetCells(updates []CellUpdate) (*Table, error) {
	out := t.Clone()
	for _, u := range updates {
		i, ok := out.index()[u.ID]
		if !ok {
			return nil, fmt.Errorf("table: identifier %d not in table", u.ID)
		}
		if u.Attr < 0 || u.Attr >= t.sc.Arity() {
			return nil, fmt.Errorf("table: attribute position %d out of range", u.Attr)
		}
		out.rows[i].Tuple[u.Attr] = u.Val
	}
	return out, nil
}

// SetCellInPlace mutates a cell; for builders that own their table.
func (t *Table) SetCellInPlace(id, attr int, v Value) {
	i, ok := t.index()[id]
	if !ok {
		panic(fmt.Sprintf("table: identifier %d not in table", id))
	}
	t.rows[i].Tuple[attr] = v
	t.invalidate()
}

// String renders the table in a compact fixed-width form for debugging
// and the CLI.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("id")
	for _, a := range t.sc.Attrs() {
		b.WriteByte('\t')
		b.WriteString(a)
	}
	b.WriteString("\tw\n")
	for _, r := range t.rows {
		b.WriteString(strconv.Itoa(r.ID))
		for _, v := range r.Tuple {
			b.WriteByte('\t')
			if strings.HasPrefix(v, freshPrefix) {
				b.WriteString("⊥" + strings.TrimPrefix(v, freshPrefix))
			} else {
				b.WriteString(v)
			}
		}
		b.WriteByte('\t')
		b.WriteString(strconv.FormatFloat(r.Weight, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// Violation is a pair of tuples violating an FD.
type Violation struct {
	FD       fd.FD
	ID1, ID2 int
}

// SatisfiesFD reports whether the table satisfies a single FD: every two
// tuples agreeing on the lhs agree on the rhs. Linear time over the
// cached lhs/rhs projection codes; no string keys are built.
func (t *Table) SatisfiesFD(f fd.FD) bool {
	if len(t.rows) == 0 {
		return true
	}
	lhs := t.projection(f.LHS)
	rhs := t.projection(f.RHS)
	rhsOf := make([]int32, lhs.groups)
	for i := range rhsOf {
		rhsOf[i] = -1
	}
	for ri := range t.rows {
		l, r := lhs.codes[ri], rhs.codes[ri]
		if prev := rhsOf[l]; prev < 0 {
			rhsOf[l] = r
		} else if prev != r {
			return false
		}
	}
	return true
}

// FDViolationTuples returns the number of tuples involved in at least
// one violation of the FD: tuples whose lhs group carries two or more
// distinct rhs values. Linear time over the cached projection codes —
// unlike Violations, which enumerates the (quadratic) violating pairs.
// The impact report of fdrepair verify prints this per FD, before and
// after a repair.
func (t *Table) FDViolationTuples(f fd.FD) int {
	if len(t.rows) == 0 {
		return 0
	}
	lhs := t.projection(f.LHS)
	rhs := t.projection(f.RHS)
	count := 0
	for _, g := range t.grouping(lhs).buckets {
		first := rhs.codes[g[0]]
		for _, ri := range g[1:] {
			if rhs.codes[ri] != first {
				count += len(g)
				break
			}
		}
	}
	return count
}

// Satisfies reports whether the table satisfies every FD in the set.
func (t *Table) Satisfies(ds *fd.Set) bool {
	for i := 0; i < ds.Len(); i++ {
		if !t.SatisfiesFD(ds.FDAt(i)) {
			return false
		}
	}
	return true
}

// groupRowIndexes returns the projection's cached whole-table row
// grouping (row indices bucketed by code, in code order). The buckets
// share one backing array and must be treated as read-only.
func (t *Table) groupRowIndexes(p *projection) [][]int32 {
	return t.grouping(p).buckets
}

// Violations enumerates, for each FD, one violating pair per conflicting
// tuple pair, up to max entries (max ≤ 0 means no bound). Quadratic per
// lhs group over cached projection codes; intended for diagnostics and
// small instances.
func (t *Table) Violations(ds *fd.Set, max int) []Violation {
	if len(t.rows) == 0 {
		return nil
	}
	var out []Violation
	for fi := 0; fi < ds.Len(); fi++ {
		f := ds.FDAt(fi)
		lhs := t.projection(f.LHS)
		rhs := t.projection(f.RHS)
		for _, g := range t.groupRowIndexes(lhs) {
			for i := 0; i < len(g); i++ {
				for j := i + 1; j < len(g); j++ {
					if rhs.codes[g[i]] != rhs.codes[g[j]] {
						out = append(out, Violation{FD: f, ID1: t.rows[g[i]].ID, ID2: t.rows[g[j]].ID})
						if max > 0 && len(out) >= max {
							return out
						}
					}
				}
			}
		}
	}
	return out
}

// ConflictEdge is an unordered pair of tuple identifiers that jointly
// violate at least one FD of a set.
type ConflictEdge struct{ ID1, ID2 int }

// ConflictPairs returns the conflict edges of the table under the set
// as row positions: (i, j) with i < j is a pair iff rows i and j
// violate one or more FDs. A consistent subset is exactly an
// independent set of this graph, so an optimal S-repair is the
// complement of a maximum-weight independent set, equivalently a
// minimum-weight vertex cover (Proposition 3.3). Pairs come FD by FD,
// then lhs group by lhs group, then in row order within a group; a pair
// violating several FDs is listed once, under the first. The
// 2-approximate engines run the cover on these positions directly.
func (t *Table) ConflictPairs(ds *fd.Set) [][2]int32 {
	if len(t.rows) == 0 {
		return nil
	}
	lhs := make([]*projection, ds.Len())
	rhs := make([]*projection, ds.Len())
	for fi := range lhs {
		f := ds.FDAt(fi)
		lhs[fi], rhs[fi] = t.projection(f.LHS), t.projection(f.RHS)
	}
	violatedBefore := func(fi int, i, j int32) bool {
		for k := 0; k < fi; k++ {
			if lhs[k].codes[i] == lhs[k].codes[j] && rhs[k].codes[i] != rhs[k].codes[j] {
				return true
			}
		}
		return false
	}
	var out [][2]int32
	for fi := range lhs {
		rc := rhs[fi].codes
		for _, g := range t.groupRowIndexes(lhs[fi]) {
			for i := 0; i < len(g); i++ {
				for j := i + 1; j < len(g); j++ {
					if rc[g[i]] != rc[g[j]] && !violatedBefore(fi, g[i], g[j]) {
						out = append(out, [2]int32{g[i], g[j]})
					}
				}
			}
		}
	}
	return out
}

// ConflictGraph is ConflictPairs in tuple identifiers, in the same
// order, each edge oriented ID1 < ID2.
func (t *Table) ConflictGraph(ds *fd.Set) []ConflictEdge {
	pairs := t.ConflictPairs(ds)
	if len(pairs) == 0 {
		return nil
	}
	out := make([]ConflictEdge, len(pairs))
	for k, p := range pairs {
		e := ConflictEdge{ID1: t.rows[p[0]].ID, ID2: t.rows[p[1]].ID}
		if e.ID1 > e.ID2 {
			e.ID1, e.ID2 = e.ID2, e.ID1
		}
		out[k] = e
	}
	return out
}

// Weights returns the rows' weights in row order, in a fresh slice: the
// vertex weights of the conflict pairs.
func (t *Table) Weights() []float64 {
	out := make([]float64, len(t.rows))
	for i := range t.rows {
		out[i] = t.rows[i].Weight
	}
	return out
}
