package table

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/schema"
)

// The dictionary encoding turns every column into a dense []int32 of
// value codes (assigned by first appearance), and every projection onto
// an attribute set into a dense []int32 of group codes. Two rows get
// equal projection codes iff their projections are equal, so the repair
// algorithms compare and hash fixed-width integers instead of building
// length-prefixed strings per row (KeyOf) on every GroupBy /
// Violations / ConflictGraph call.
//
// The encoding is built lazily and published copy-on-write through an
// atomic pointer: lookups are lock-free (the parallel block solver hits
// this path constantly), builds take the table's encMu and publish a
// fresh immutable snapshot, and any plain table mutation drops the
// snapshot. The incremental mutators (incremental.go) instead extend
// the snapshot in place under encMu — the per-column dictionaries and
// per-projection key maps are retained for exactly that purpose — so a
// resident session never re-interns columns it already encoded.

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
//
// width/seen/sseen are the retained state of incremental extension for
// multi-attribute projections (nil for single-attribute and empty
// projections, whose codes derive from the column dictionaries). They
// are touched only under the table's encMu.
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

	width []uint           // packed-key bit widths (multi-attr, packed)
	seen  map[uint64]int32 // packed key -> code (multi-attr, packed)
	sseen map[string]int32 // string key -> code (multi-attr, wide fallback)
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

// encoding holds the per-column dictionaries and the cached projections
// of one table snapshot covering rows [0, n). A published *encoding is
// immutable for readers; builds and incremental extensions replace it
// wholesale under encMu (the dictionary maps are shared across
// snapshots and mutated only under that lock — readers never touch
// them).
type encoding struct {
	n     int
	cols  [][]int32         // per attribute: value code per row (nil until needed)
	card  []int             // per attribute: dictionary size
	dicts []map[Value]int32 // per attribute: value -> code (encMu only)
	proj  map[schema.AttrSet]*projection
}

// clone returns a shallow working copy for copy-on-write extension:
// fresh headers and a fresh projection map, shared column storage and
// dictionaries.
func (e *encoding) clone(arity int) *encoding {
	next := &encoding{
		n:     e.n,
		cols:  make([][]int32, arity),
		card:  make([]int, arity),
		dicts: make([]map[Value]int32, arity),
		proj:  make(map[schema.AttrSet]*projection, len(e.proj)+1),
	}
	copy(next.cols, e.cols)
	copy(next.card, e.card)
	copy(next.dicts, e.dicts)
	for a, p := range e.proj {
		next.proj[a] = p
	}
	return next
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
	old := t.enc.Load()
	if old != nil {
		if p, ok := old.proj[attrs]; ok {
			return p
		}
	}
	// Copy-on-write: extend the snapshot without mutating the published
	// one. Column slices are themselves immutable once built, so the
	// copies share them.
	k := t.sc.Arity()
	var next *encoding
	if old != nil {
		next = old.clone(k)
	} else {
		next = &encoding{
			n:     len(t.rows),
			cols:  make([][]int32, k),
			card:  make([]int, k),
			dicts: make([]map[Value]int32, k),
			proj:  make(map[schema.AttrSet]*projection),
		}
	}
	p := t.buildProjection(next, attrs)
	next.proj[attrs] = p
	t.enc.Store(next)
	return p
}

// column builds (once) and returns the value codes of one attribute.
// Caller must hold encMu and own e (not yet published).
func (t *Table) column(e *encoding, a int) []int32 {
	if e.cols[a] != nil {
		return e.cols[a]
	}
	col := make([]int32, len(t.rows))
	dict := make(map[Value]int32, len(t.rows))
	for ri := range t.rows {
		v := t.rows[ri].Tuple[a]
		c, ok := dict[v]
		if !ok {
			c = int32(len(dict))
			dict[v] = c
		}
		col[ri] = c
	}
	e.cols[a] = col
	e.card[a] = len(dict)
	e.dicts[a] = dict
	return col
}

// buildProjection computes the group codes of the projection onto
// attrs. The whole-table row grouping is not built here — it
// materializes on first demand (see grouping). Caller must hold encMu
// and own e.
func (t *Table) buildProjection(e *encoding, attrs schema.AttrSet) *projection {
	n := len(t.rows)
	if n == 0 {
		return &projection{}
	}
	pos := attrs.Positions()
	var p *projection
	switch len(pos) {
	case 0:
		p = &projection{codes: make([]int32, n), groups: 1}
	case 1:
		col := t.column(e, pos[0])
		p = &projection{codes: col, groups: e.card[pos[0]]}
	default:
		p = t.buildMultiProjection(e, attrs, pos)
	}
	return p
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

// buildMultiProjection packs the per-column codes of a multi-attribute
// projection into one uint64 key when the dictionary widths fit (they
// essentially always do), assigning dense group codes by first
// appearance; pathologically wide projections fall back to string keys.
// The key map and bit widths are retained on the projection so an
// incremental append extends the codes instead of re-interning.
func (t *Table) buildMultiProjection(e *encoding, attrs schema.AttrSet, pos []int) *projection {
	n := len(t.rows)
	width := make([]uint, len(pos))
	total := uint(0)
	for i, a := range pos {
		t.column(e, a)
		w := uint(bits.Len(uint(e.card[a] - 1)))
		width[i] = w
		total += w
	}
	p := &projection{codes: make([]int32, n)}
	if total <= 64 {
		seen := make(map[uint64]int32, n)
		for ri := 0; ri < n; ri++ {
			var key uint64
			for i, a := range pos {
				key = key<<width[i] | uint64(e.cols[a][ri])
			}
			c, ok := seen[key]
			if !ok {
				c = int32(len(seen))
				seen[key] = c
			}
			p.codes[ri] = c
		}
		p.groups = len(seen)
		p.width = width
		p.seen = seen
		return p
	}
	sseen := make(map[string]int32, n)
	for ri := 0; ri < n; ri++ {
		k := KeyOf(t.rows[ri].Tuple, attrs)
		c, ok := sseen[k]
		if !ok {
			c = int32(len(sseen))
			sseen[k] = c
		}
		p.codes[ri] = c
	}
	p.groups = len(sseen)
	p.sseen = sseen
	return p
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
