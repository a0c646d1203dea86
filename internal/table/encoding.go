package table

import (
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/schema"
)

// The dictionary encoding gives every row one int32 code per cached
// attribute-set projection: two rows get equal codes iff their
// projections are equal, so the repair algorithms compare and hash
// fixed-width integers instead of building length-prefixed strings per
// row on every GroupBy / Violations / ConflictGraph call.
//
// Projections are the encoding's only unit. A single-attribute
// projection is the column: it owns the attribute's value dictionary
// and numbers the values by first appearance. A multi-attribute
// projection folds its lowest attribute onto the projection of its
// other attributes: it numbers the distinct keys rest<<32 | column by
// first appearance, so any number of attributes fits one uint64 key,
// and building it caches the two projections it folds. A build, an
// incremental append and a cell re-code (incremental.go) all code rows
// through one interning step, intern.
//
// The encoding is built lazily and published copy-on-write through an
// atomic pointer: lookups are lock-free (the parallel block solver hits
// this path constantly), builds take the table's encMu and publish a
// fresh immutable snapshot, and any plain table mutation drops the
// snapshot. The incremental mutators instead extend the snapshot under
// encMu — every projection retains its dictionary or key map for
// exactly that purpose — so a resident session never re-interns rows it
// already encoded.

// projection is the dictionary code of one attribute-set projection:
// codes[rowIndex] identifies the row's projection; equal codes iff
// equal projections. On a fresh build, codes are dense in [0, groups)
// and assigned in order of first appearance. After incremental cell
// updates, groups remains only an exclusive upper bound on the codes —
// a code whose last carrier was overwritten leaves a hole — and code
// numeric order may diverge from first-appearance order. Nothing
// downstream depends on density or numeric order: algorithms use codes
// as equality labels, groups as an array bound, and the lazily
// materialized rowGrouping (always canonical first-appearance order
// with no empty buckets) for ordered iteration.
type projection struct {
	codes  []int32
	groups int

	// rg is the lazily materialized whole-table row grouping. Most
	// projections are only ever read for their codes (equality labels),
	// so the grouping builds on first demand — under encMu, published
	// through the atomic pointer for later lock-free readers — and a
	// projection nobody groups by never pays for bucketing at all. An
	// incremental append extends an aligned materialized grouping in
	// place of a rebuild; cell recodes drop it back to lazy.
	rg atomic.Pointer[rowGrouping]

	// The interning state, shared by every snapshot of the projection
	// and touched only under the table's encMu: the value dictionary of
	// a single-attribute projection, or the fold-key map of a
	// multi-attribute one. The empty projection has neither.
	dict map[Value]int32
	keys map[uint64]int32
}

// rowGrouping is one projection's whole-table row grouping: one bucket
// of ascending row indices per live code, buckets ordered by first
// appearance, no empty buckets. aligned records that buckets[c] is
// exactly the bucket of code c — codes dense in [0, groups) and
// numbered in first-appearance order — which holds after a fresh build,
// is preserved by pure appends (new codes are assigned sequentially, so
// new buckets land at the end in canonical order), and is broken by
// cell recodes, which can orphan codes and reorder first appearances.
type rowGrouping struct {
	buckets [][]int32
	aligned bool
}

// encoding holds the cached projections of one table snapshot covering
// rows [0, n). Every multi-attribute projection it holds comes with the
// two projections it folds. A published *encoding is immutable for
// readers; builds and incremental extensions replace it wholesale under
// encMu.
type encoding struct {
	n    int
	proj map[schema.AttrSet]*projection
}

// clone returns a working copy for copy-on-write extension: a fresh
// projection map sharing the projections.
func (e *encoding) clone() *encoding {
	return &encoding{n: e.n, proj: maps.Clone(e.proj)}
}

// sets returns the cached attribute sets in ascending bitmask order. A
// proper subset has the smaller bitmask, so a mutation that walks them
// in this order extends every projection after the projections it
// folds.
func (e *encoding) sets() []schema.AttrSet {
	return slices.Sorted(maps.Keys(e.proj))
}

// invalidate drops the cached encoding; called by every plain mutation.
func (t *Table) invalidate() {
	t.enc.Store(nil)
}

// projection returns the cached projection for attrs, building (and
// publishing) encoding state as needed. Lock-free on cache hits; safe
// for concurrent use. The returned projection is immutable.
func (t *Table) projection(attrs schema.AttrSet) *projection {
	if e := t.enc.Load(); e != nil {
		if p, ok := e.proj[attrs]; ok {
			return p
		}
	}
	t.encMu.Lock()
	defer t.encMu.Unlock()
	// Copy-on-write: extend the snapshot without mutating the published
	// one.
	var next *encoding
	if old := t.enc.Load(); old == nil {
		next = &encoding{n: len(t.rows), proj: make(map[schema.AttrSet]*projection)}
	} else if p, ok := old.proj[attrs]; ok {
		return p
	} else {
		next = old.clone()
	}
	p := t.build(next, attrs)
	t.enc.Store(next)
	return p
}

// build returns e's projection onto attrs. When e holds none it codes
// rows [0, e.n) into a new one, after building the two projections a
// multi-attribute set folds. The whole-table row grouping is not built
// here — it materializes on first demand (see grouping). Caller must
// hold encMu and own e.
func (t *Table) build(e *encoding, attrs schema.AttrSet) *projection {
	if p, ok := e.proj[attrs]; ok {
		return p
	}
	p := &projection{}
	switch attrs.Len() {
	case 0:
	case 1:
		p.dict = make(map[Value]int32, e.n)
	default:
		low := attrs.First()
		t.build(e, schema.Singleton(low))
		t.build(e, attrs.Remove(low))
		p.keys = make(map[uint64]int32, e.n)
	}
	return t.extend(e, attrs, p)
}

// extend stores in e a copy of p that codes rows [len(p.codes), e.n)
// as well. The codes grow in place within capacity, which a reader of
// an older snapshot never sees past its own length, and an aligned row
// grouping grows with them. e must already hold the projections attrs
// folds over all e.n rows. Caller must hold encMu and own e.
func (t *Table) extend(e *encoding, attrs schema.AttrSet, p *projection) *projection {
	from := len(p.codes)
	np := &projection{codes: append(p.codes, make([]int32, e.n-from)...), dict: p.dict, keys: p.keys}
	t.intern(e, attrs, np, from, e.n)
	if g := p.rg.Load(); g != nil && g.aligned {
		// Pure appends keep an aligned grouping canonical by
		// construction: an existing code's rows extend its bucket (row
		// indices ascending), and new codes are assigned sequentially so
		// their buckets land at the end in first-appearance order.
		// Extend by direct bucket indexing instead of rebuilding O(n).
		// A grouping that was never materialized (or lost alignment to a
		// cell recode) stays lazy — the next consumer rebuilds it.
		np.rg.Store(&rowGrouping{buckets: extendGroupsAppend(g.buckets, np.codes, from), aligned: true})
	}
	e.proj[attrs] = np
	return np
}

// intern codes rows [lo, hi) of p from the table's current values: the
// one interning step of builds, appends and cell re-codes. A new value
// or fold key gets the next code. A multi-attribute projection reads
// the codes of the two projections it folds from e, which must already
// hold those rows. Caller must hold encMu and own e.
func (t *Table) intern(e *encoding, attrs schema.AttrSet, p *projection, lo, hi int) {
	codes := p.codes
	switch {
	case p.dict != nil:
		a, dict, rows := attrs.First(), p.dict, t.rows
		for ri := lo; ri < hi; ri++ {
			v := rows[ri].Tuple[a]
			c, ok := dict[v]
			if !ok {
				c = int32(len(dict))
				dict[v] = c
			}
			codes[ri] = c
		}
		p.groups = len(dict)
	case p.keys != nil:
		low, keys := attrs.First(), p.keys
		col, rest := e.proj[schema.Singleton(low)].codes, e.proj[attrs.Remove(low)].codes
		for ri := lo; ri < hi; ri++ {
			k := uint64(rest[ri])<<32 | uint64(col[ri])
			c, ok := keys[k]
			if !ok {
				c = int32(len(keys))
				keys[k] = c
			}
			codes[ri] = c
		}
		p.groups = len(keys)
	default:
		p.groups = min(len(codes), 1)
	}
}

// grouping returns the projection's whole-table row grouping,
// materializing it on first demand. Lock-free once built.
func (t *Table) grouping(p *projection) *rowGrouping {
	if g := p.rg.Load(); g != nil {
		return g
	}
	t.encMu.Lock()
	defer t.encMu.Unlock()
	if g := p.rg.Load(); g != nil {
		return g
	}
	buckets, aligned := canonicalGroups(p.codes, p.groups)
	g := &rowGrouping{buckets: buckets, aligned: aligned}
	p.rg.Store(g)
	return g
}

// canonicalGroups buckets row indices by code (ascending within each
// bucket), drops codes no row carries, and orders the buckets by their
// first row index — exactly the grouping a cold first-appearance build
// produces. On a fresh encoding codes are dense and already in
// first-appearance order, so nothing is dropped and the bucket index is
// the code; after incremental cell updates codes may have holes and sit
// out of first-appearance order, and this restores the canonical
// grouping so every order-sensitive consumer (GroupBy, identity-view
// GroupByArena, block enumeration) stays byte-identical to a
// from-scratch rebuild. All buckets share one backing array.
//
// aligned reports whether bucket index equals code throughout: no code
// in [0, bound) was dropped and the buckets are already in code order.
func canonicalGroups(codes []int32, bound int) (groups [][]int32, aligned bool) {
	if len(codes) == 0 {
		return nil, true
	}
	// One pass decides whether the codes are canonical: every code is
	// first seen exactly when it is the next unused one, and all of
	// [0, bound) occur. Canonical codes bucket by code directly; only
	// other codes pay for the O(bound) rank array.
	live := int32(0)
	aligned = true
	for _, c := range codes {
		if c == live {
			live++
		} else if c > live {
			aligned = false
			break
		}
	}
	aligned = aligned && int(live) == bound
	// Otherwise rank codes by first appearance, then counting-sort on
	// the rank: the buckets come out in canonical order directly, with
	// no comparison sort even when cell recodes have left the code
	// values out of first-appearance order or with holes.
	var rank []int32
	if !aligned {
		rank = make([]int32, bound)
		for i := range rank {
			rank[i] = -1
		}
		live = 0
		for _, c := range codes {
			if rank[c] < 0 {
				rank[c] = live
				live++
			}
		}
	}
	counts := make([]int32, live)
	for _, c := range codes {
		if rank != nil {
			c = rank[c]
		}
		counts[c]++
	}
	starts := make([]int32, live+1)
	for g := int32(0); g < live; g++ {
		starts[g+1] = starts[g] + counts[g]
	}
	flat := make([]int32, len(codes))
	next := counts // reuse as cursors
	copy(next, starts[:live])
	for ri, c := range codes {
		if rank != nil {
			c = rank[c]
		}
		flat[next[c]] = int32(ri)
		next[c]++
	}
	out := make([][]int32, live)
	for g := int32(0); g < live; g++ {
		out[g] = flat[starts[g]:starts[g+1]:starts[g+1]]
	}
	return out, aligned
}

// GroupLabels buckets the positions of labels by label, for labels in
// [0, bound): one bucket of ascending positions per label that occurs,
// buckets ordered by first appearance — the order a row grouping takes.
// The buckets share one backing array.
func GroupLabels(labels []int32, bound int) [][]int32 {
	groups, _ := canonicalGroups(labels, bound)
	return groups
}

// ProjectionCodes returns one int32 code per row (in insertion order)
// such that two rows receive equal codes iff their projections onto
// attrs are equal. Codes lie in [0, groups); on a freshly built table
// they are dense and assigned in order of first appearance, while after
// incremental cell updates groups is only an exclusive bound (see
// projection). The returned slice is shared and must not be mutated; it
// is invalidated by any table mutation.
func (t *Table) ProjectionCodes(attrs schema.AttrSet) (codes []int32, groups int) {
	p := t.projection(attrs)
	return p.codes, p.groups
}

// RowGroups returns the whole-table grouping of rows by their
// projection onto attrs: one bucket of ascending row indices per
// distinct projection value, buckets ordered by first appearance. This
// is the canonical block partition Session.Repair classifies into clean
// and dirty blocks. The buckets share one backing array, must be
// treated as read-only, and are invalidated by any table mutation.
func (t *Table) RowGroups(attrs schema.AttrSet) [][]int32 {
	return t.grouping(t.projection(attrs)).buckets
}

// IndexOf returns the position of the identifier in insertion order
// (the row index used by ProjectionCodes and View).
func (t *Table) IndexOf(id int) (int, bool) {
	i, ok := t.index()[id]
	return i, ok
}
