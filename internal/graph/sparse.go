package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/solve"
)

// Edge is one weighted edge of a bipartite graph, given by its left
// endpoint I, right endpoint J and weight W. It is the shared edge-list
// currency of the matching engines: SparseMatcher, GreedyMatching and
// the benches all consume []Edge, so callers build the (sparse) edge
// set once instead of padding dense weight matrices.
type Edge struct {
	I, J int
	W    float64
}

// MatchResult is the outcome of a SparseMatcher solve.
type MatchResult struct {
	// Match maps each left node to its matched right node, or -1.
	Match []int
	// Picked lists the indices (into the input edge list) of the
	// matched edges, ascending. When parallel edges join the same pair,
	// the heaviest (first among ties) is the one reported.
	Picked []int
	// Total is the matched weight.
	Total float64
}

// SparseMatcher computes maximum-weight bipartite matchings over an
// explicit edge list. Where MaxWeightBipartiteMatching pads the
// instance to a dense size×size matrix and pays O(size³) regardless of
// how many edges exist, SparseMatcher works on the real edge set: it
// splits the graph into connected components (solved independently,
// optionally in parallel on the Ctx worker budget) and runs a
// shortest-augmenting-path solver with potentials (Jonker–Volgenant
// over adjacency lists, heap-based Dijkstra) per component,
// O(V·E·log V) on the component's edges. Degenerate shapes short-circuit: single-edge components and
// one-sided stars are solved by a max scan, and components whose dense
// matrix is tiny go to the dense Hungarian solver, which wins there.
//
// All weights must be ≥ 0. A maximum-weight matching never benefits
// from a weight-0 edge, so zero-weight edges are never reported
// matched — the same convention as MaxWeightBipartiteMatching, whose
// padded slack edges have weight 0. Results are deterministic for a
// fixed input, serial or parallel, arena or no arena.
type SparseMatcher struct {
	n, m  int
	edges []Edge

	// Ctx, when non-nil, is the per-solve context: components fan out
	// on its worker budget (the same pool as the repair blocks when the
	// repair engine is the caller), per-component scratch recycles
	// through its arena, path counters feed its stats, and
	// cancellation is honored at component boundaries. A nil Ctx runs
	// serial with fresh allocations.
	Ctx *solve.Ctx

	// Memo, when non-nil, caches per-component results across solves
	// (see MatchMemo). The caller owns the memo and must not share it
	// across concurrent Solve calls.
	Memo *MatchMemo
}

// MatchMemo caches matching results per connected component, keyed by
// the component's full localized content. solveComponent is a
// deterministic function of the localized edge list — per-component
// node ids in first-appearance order, weights, and nothing else — so
// two components with identical (li, rj, w) sequences pick edges at
// identical positions of their edge lists, regardless of how global
// node numbering shifted between solves. A resident session exploits
// this: after a small mutation, only components containing a re-solved
// block's edge have new weights; every other component hits the memo
// and skips its Dijkstra entirely. Lookups verify full content
// equality (the hash only buckets), so a collision can never smuggle
// in a wrong matching.
type MatchMemo struct {
	entries map[uint64][]memoEntry
	edges   int // total edges retained, for the eviction cap

	// Structure cache: the previous solve's component decomposition,
	// keyed by the full edge structure (endpoints and zero-weight
	// pattern). See SparseMatcher.decompose.
	structN, structM int
	structKeys       []uint64
	structCounts     []int32
	structShapes     []compShape
	structLoc        []locStruct
	structMisses     int
}

// compShape is the cached bipartition size of one component.
type compShape struct{ nL, nR int32 }

// locStruct is the weight-free part of one localized edge.
type locStruct struct{ li, rj, ei int32 }

// edgeKey packs an edge's structural identity: endpoints plus whether
// the weight is zero (zero-weight edges are dropped by the
// decomposition, so a weight moving to or from zero changes structure).
// Endpoints here are dictionary-code indices, well inside 31 bits.
func edgeKey(e Edge) uint64 {
	k := uint64(uint32(e.I))<<32 | uint64(uint32(e.J))
	if e.W == 0 {
		k |= 1 << 63
	}
	return k
}

// structHit reports whether the cached decomposition applies to this
// edge structure.
func (m *MatchMemo) structHit(n, mm int, edges []Edge) bool {
	if m.structN != n || m.structM != mm || len(m.structKeys) != len(edges) {
		return false
	}
	for i, e := range edges {
		if m.structKeys[i] != edgeKey(e) {
			return false
		}
	}
	return true
}

// storeStruct caches the decomposition's structure for the next solve.
func (m *MatchMemo) storeStruct(n, mm int, edges []Edge, comps []component) {
	m.structN, m.structM = n, mm
	m.structKeys = m.structKeys[:0]
	if cap(m.structKeys) < len(edges) {
		m.structKeys = make([]uint64, 0, len(edges))
	}
	for _, e := range edges {
		m.structKeys = append(m.structKeys, edgeKey(e))
	}
	total := 0
	for _, c := range comps {
		total += len(c.edges)
	}
	m.structCounts = m.structCounts[:0]
	m.structShapes = m.structShapes[:0]
	m.structLoc = m.structLoc[:0]
	if cap(m.structCounts) < len(comps) {
		m.structCounts = make([]int32, 0, len(comps))
		m.structShapes = make([]compShape, 0, len(comps))
	}
	if cap(m.structLoc) < total {
		m.structLoc = make([]locStruct, 0, total)
	}
	for _, c := range comps {
		m.structCounts = append(m.structCounts, int32(len(c.edges)))
		m.structShapes = append(m.structShapes, compShape{nL: int32(c.nL), nR: int32(c.nR)})
		for _, e := range c.edges {
			m.structLoc = append(m.structLoc, locStruct{li: e.li, rj: e.rj, ei: e.ei})
		}
	}
}

// rebuild reconstitutes the cached decomposition against the current
// weights: identical components in identical order — the structure was
// verified edge for edge — with each localized edge's weight refreshed
// from the input list.
func (m *MatchMemo) rebuild(scr *compScratch, edges []Edge) []component {
	ncomp := len(m.structCounts)
	if ncomp == 0 {
		return nil
	}
	comps := solve.Grow(scr.comps, ncomp)
	scr.comps = comps
	flat := solve.Grow(scr.flat, len(m.structLoc))
	scr.flat = flat
	start := int32(0)
	for c := range comps {
		cnt := m.structCounts[c]
		sh := m.structShapes[c]
		comps[c] = component{edges: flat[start : start+cnt : start+cnt], nL: int(sh.nL), nR: int(sh.nR)}
		start += cnt
	}
	for i, l := range m.structLoc {
		flat[i] = locEdge{li: l.li, rj: l.rj, ei: l.ei, w: edges[l.ei].W}
	}
	return comps
}

// memoEdge is one localized edge of a cached component (no global
// edge index: positions substitute for identity).
type memoEdge struct {
	li, rj int32
	w      float64
}

// memoEntry is one cached component: its shape, localized edges in
// order, and the positions (into that edge list) of the picked edges.
type memoEntry struct {
	nL, nR int
	edges  []memoEdge
	picked []int32
}

// memoCapEdges bounds the total edges a memo retains; past it the memo
// resets wholesale (the next solve re-populates it), which keeps a
// long-lived session's memory bounded while costing one full re-solve
// every many rounds.
const memoCapEdges = 1 << 18

// NewMatchMemo returns an empty component cache.
func NewMatchMemo() *MatchMemo {
	return &MatchMemo{entries: map[uint64][]memoEntry{}}
}

// hashComponent buckets a component by FNV-1a over its full content.
func hashComponent(c component) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mix(uint64(c.nL))
	mix(uint64(c.nR))
	for _, e := range c.edges {
		mix(uint64(uint32(e.li))<<32 | uint64(uint32(e.rj)))
		mix(math.Float64bits(e.w))
	}
	return h
}

// lookup returns the cached picked positions for a component with
// exactly this content.
func (m *MatchMemo) lookup(h uint64, c component) ([]int32, bool) {
	for _, ent := range m.entries[h] {
		if ent.nL != c.nL || ent.nR != c.nR || len(ent.edges) != len(c.edges) {
			continue
		}
		same := true
		for k, e := range c.edges {
			if me := ent.edges[k]; me.li != e.li || me.rj != e.rj || me.w != e.w {
				same = false
				break
			}
		}
		if same {
			return ent.picked, true
		}
	}
	return nil, false
}

// store caches a solved component. picked holds positions into
// c.edges, ascending.
func (m *MatchMemo) store(h uint64, c component, picked []int32) {
	if m.edges+len(c.edges) > memoCapEdges {
		clear(m.entries)
		m.edges = 0
		if len(c.edges) > memoCapEdges {
			return
		}
	}
	edges := make([]memoEdge, len(c.edges))
	for k, e := range c.edges {
		edges[k] = memoEdge{li: e.li, rj: e.rj, w: e.w}
	}
	m.entries[h] = append(m.entries[h], memoEntry{nL: c.nL, nR: c.nR, edges: edges, picked: picked})
	m.edges += len(c.edges)
}

// NewSparseMatcher validates the instance: endpoints in range and
// weights ≥ 0 (and not NaN). Missing edges are simply not listed —
// there is no -Inf sentinel in the edge-list representation.
func NewSparseMatcher(n, m int, edges []Edge) (*SparseMatcher, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative node count (%d,%d)", n, m)
	}
	for _, e := range edges {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= m {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside bipartition %d×%d", e.I, e.J, n, m)
		}
		if e.W < 0 || math.IsNaN(e.W) {
			return nil, fmt.Errorf("graph: negative edge weight %v on (%d,%d)", e.W, e.I, e.J)
		}
	}
	return &SparseMatcher{n: n, m: m, edges: edges}, nil
}

// locEdge is an edge localized to its component: li and rj are dense
// per-component node ids, ei the index into the original edge list.
type locEdge struct {
	li, rj int32
	ei     int32
	w      float64
}

// component is one connected component of the positive-weight edges.
type component struct {
	edges  []locEdge
	nL, nR int
}

// Solve computes a maximum-weight matching.
func (sm *SparseMatcher) Solve() (MatchResult, error) {
	res := MatchResult{Match: make([]int, sm.n)}
	for i := range res.Match {
		res.Match[i] = -1
	}
	scr, _ := sm.Ctx.GetScratch(compKey{}).(*compScratch)
	if scr == nil {
		scr = new(compScratch)
	}
	// The components alias the scratch's flat edge array; nothing below
	// retains them past Solve (the memo stores copies), so the scratch
	// recycles on return.
	defer sm.Ctx.PutScratch(compKey{}, scr)
	comps := sm.decompose(scr)
	if len(comps) == 0 {
		return res, nil
	}
	// Matched edges collect into a bitmap over the input edge list and
	// emit ascending in one pass at the end — cheaper than sorting the
	// per-component concatenation, and the float order of res.Total
	// becomes the input edge order regardless of which components came
	// from the memo.
	mark := solve.Grow(scr.mark, len(sm.edges))
	scr.mark = mark
	clear(mark)
	total := 0
	// With a memo, resolve cached components serially up front and fan
	// out only the misses; the stored positions translate back to the
	// current solve's edge indices through the component's edge list.
	miss := make([]int, 0, len(comps))
	var hashes []uint64
	if sm.Memo != nil {
		hashes = solve.Grow(scr.hashes, len(comps))
		scr.hashes = hashes
		for ci, c := range comps {
			hashes[ci] = hashComponent(c)
			if pos, ok := sm.Memo.lookup(hashes[ci], c); ok {
				for _, j := range pos {
					mark[c.edges[j].ei] = true
				}
				total += len(pos)
				continue
			}
			miss = append(miss, ci)
		}
	} else {
		for ci := range comps {
			miss = append(miss, ci)
		}
	}
	// Components become tasks on the same work-stealing scheduler as
	// the repair blocks; each runs on the Ctx of whichever worker
	// executes it, so its scratch comes from that worker's arena shard.
	picked := make([][]int32, len(miss))
	one := func(wc *solve.Ctx, i int) error {
		if err := wc.Err(); err != nil {
			return err
		}
		p, err := solveComponent(comps[miss[i]], wc)
		if err != nil {
			return err
		}
		picked[i] = p
		return nil
	}
	if err := sm.Ctx.ForEachBlock(len(miss), func(i int) int { return len(comps[miss[i]].edges) }, one); err != nil {
		return MatchResult{}, err
	}
	for i, ci := range miss {
		c := comps[ci]
		if sm.Memo != nil {
			// Translate the picked global edge indices into positions of
			// the component's (ei-ascending) edge list.
			pos := make([]int32, len(picked[i]))
			for k, ei := range picked[i] {
				pos[k] = int32(sort.Search(len(c.edges), func(j int) bool { return c.edges[j].ei >= ei }))
			}
			sm.Memo.store(hashes[ci], c, pos)
		}
		for _, ei := range picked[i] {
			mark[ei] = true
		}
		total += len(picked[i])
	}
	res.Picked = make([]int, 0, total)
	for ei, e := range sm.edges {
		if !mark[ei] {
			continue
		}
		res.Match[e.I] = e.J
		res.Total += e.W
		res.Picked = append(res.Picked, ei)
	}
	return res, nil
}

// decompose returns the connected-component decomposition, skipping the
// union-find pass when the memo's structure cache matches: in a
// resident session's mutate/repair loop the block partition — and with
// it the matcher's edge structure — is stable round to round, only the
// weights move, so the previous decomposition is rebuilt by copying the
// cached localization and refreshing each edge's weight.
func (sm *SparseMatcher) decompose(scr *compScratch) []component {
	if sm.Memo == nil {
		return sm.components(scr)
	}
	if sm.Memo.structHit(sm.n, sm.m, sm.edges) {
		sm.Memo.structMisses = 0
		return sm.Memo.rebuild(scr, sm.edges)
	}
	comps := sm.components(scr)
	// A workload that keeps re-shaping the graph (fresh values splitting
	// blocks) would pay the store's O(E) copy every round for nothing,
	// so persistent misses back off to occasional re-probes. A stale
	// cache stays correct: the keys fully determine the decomposition,
	// so any future hit — whenever the structure recurs — is exact.
	sm.Memo.structMisses++
	if n := sm.Memo.structMisses; n <= 2 || n&(n-1) == 0 {
		sm.Memo.storeStruct(sm.n, sm.m, sm.edges, comps)
	}
	return comps
}

// compScratch is the pooled working set of one components() call: the
// union-find forest, the node→component and node→local translation
// arrays, the per-component edge cursors, the flat localized edge
// array and the component headers. The result returned by components
// aliases flat and comps, so the scratch is recycled only when Solve
// is done with it.
type compScratch struct {
	parent []int32
	comp   []int32
	local  []int32
	starts []int32
	flat   []locEdge
	comps  []component
	mark   []bool
	hashes []uint64
}

// compKey pools compScratch values on the solve context.
type compKey struct{}

// components partitions the positive-weight edges into connected
// components (union-find over both node sides) and localizes each
// component's edges to dense per-component node ids, everything in
// first-appearance order. Zero-weight edges never affect the optimum
// and are dropped here, which also keeps components as small as the
// data allows. Every node belongs to at most one component, so shared
// dense arrays provide component and local ids without per-component
// maps; the edges bucket into one flat array by a counting pass, so
// the whole decomposition is allocation-free when the scratch is warm.
// Within each component the edges keep their global order, so ei is
// ascending per component (the memo's position translation and the
// first-appearance localization both rely on this).
func (sm *SparseMatcher) components(scr *compScratch) []component {
	nm := sm.n + sm.m
	parent := solve.Grow(scr.parent, nm)
	scr.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	npos := 0
	for _, e := range sm.edges {
		if e.W == 0 {
			continue
		}
		npos++
		a, b := find(int32(e.I)), find(int32(sm.n+e.J))
		if a != b {
			parent[a] = b
		}
	}
	if npos == 0 {
		return nil
	}
	// Assign dense component ids by first appearance in edge order and
	// count each component's edges.
	comp := solve.Grow(scr.comp, nm)
	scr.comp = comp
	for i := range comp {
		comp[i] = -1
	}
	counts := scr.starts[:0]
	for _, e := range sm.edges {
		if e.W == 0 {
			continue
		}
		root := find(int32(e.I))
		c := comp[root]
		if c < 0 {
			c = int32(len(counts))
			comp[root] = c
			counts = append(counts, 0)
		}
		counts[c]++
	}
	ncomp := len(counts)
	scr.starts = counts
	comps := solve.Grow(scr.comps, ncomp)
	scr.comps = comps
	flat := solve.Grow(scr.flat, npos)
	scr.flat = flat
	start := int32(0)
	for c := 0; c < ncomp; c++ {
		cnt := counts[c]
		comps[c] = component{edges: flat[start : start : start+cnt]}
		start += cnt
	}
	// Fill the buckets in global edge order, localizing node ids per
	// component as they first appear.
	local := solve.Grow(scr.local, nm)
	scr.local = local
	for i := range local {
		local[i] = -1
	}
	for ei, e := range sm.edges {
		if e.W == 0 {
			continue
		}
		c := comp[find(int32(e.I))]
		cp := &comps[c]
		if local[e.I] < 0 {
			local[e.I] = int32(cp.nL)
			cp.nL++
		}
		if local[sm.n+e.J] < 0 {
			local[sm.n+e.J] = int32(cp.nR)
			cp.nR++
		}
		cp.edges = append(cp.edges, locEdge{
			li: local[e.I],
			rj: local[sm.n+e.J],
			ei: int32(ei),
			w:  e.W,
		})
	}
	return comps
}

// denseComponentLimit bounds nL·nR below which a component is handed to
// the dense Hungarian solver: at that size the padded O(size³) matrix
// beats the sparse solver's heap and adjacency bookkeeping.
const denseComponentLimit = 64

// solveComponent solves one connected component and returns the matched
// edge indices (into the original edge list). The error is always the
// context's cancellation error, surfaced from inside the sparse
// solver's phase loop.
func solveComponent(c component, ctx *solve.Ctx) ([]int32, error) {
	if len(c.edges) == 1 {
		ctx.Stats().Add(solve.MatcherFastPath, 1)
		return []int32{c.edges[0].ei}, nil // a single positive edge is always matched
	}
	if c.nL == 1 || c.nR == 1 {
		// One-sided star: every edge shares a node, so a matching picks
		// exactly one — the heaviest (first among ties).
		ctx.Stats().Add(solve.MatcherFastPath, 1)
		best := c.edges[0]
		for _, e := range c.edges[1:] {
			if e.w > best.w {
				best = e
			}
		}
		return []int32{best.ei}, nil
	}
	if c.nL*c.nR <= denseComponentLimit {
		ctx.Stats().Add(solve.MatcherDense, 1)
		return solveDense(c, ctx), nil
	}
	ctx.Stats().Add(solve.MatcherSparse, 1)
	return solveSparse(c, ctx)
}

// solveDense pads the component into a dense matrix and reuses the
// Hungarian solver. Parallel edges collapse to the heaviest.
func solveDense(c component, ctx *solve.Ctx) []int32 {
	eidx := ctx.Int32s(c.nL * c.nR)
	for i := range eidx {
		eidx[i] = -1
	}
	w := ctx.Float64s(c.nL * c.nR)
	for i := range w {
		w[i] = 0
	}
	for _, e := range c.edges {
		cell := int(e.li)*c.nR + int(e.rj)
		if eidx[cell] < 0 || e.w > w[cell] {
			eidx[cell], w[cell] = e.ei, e.w
		}
	}
	weight := func(i, j int) float64 {
		if eidx[i*c.nR+j] < 0 {
			return math.Inf(-1)
		}
		return w[i*c.nR+j]
	}
	// Weights were validated by the constructor, so the dense solver
	// cannot fail.
	match, _, err := MaxWeightBipartiteMatchingCtx(ctx, c.nL, c.nR, weight)
	if err != nil {
		panic(err)
	}
	var picked []int32
	for i, j := range match {
		if j >= 0 {
			picked = append(picked, eidx[i*c.nR+j])
		}
	}
	ctx.PutInt32s(eidx)
	ctx.PutFloat64s(w)
	return picked
}

// jvScratch is the pooled per-component scratch of the sparse solver:
// CSR arrays, potentials, distances, matching state and the Dijkstra
// heap, recycled through the solve context's arena so a solve with
// many components (or many sequential solves sharing a Ctx) allocates
// each buffer once instead of per component.
type jvScratch struct {
	flip                   []locEdge
	adj                    []locEdge
	deg, fill              []int32
	pL, pR, pV, dL, dR, dV []float64
	mL, mR, eL, parentR    []int32
	doneL, doneR, doneV    []bool
	heap                   []nodeDist
}

// jvKey pools jvScratch values on the solve context.
type jvKey struct{}

// jvCancelInterval is how many augmenting phases run between
// cooperative cancellation checks inside the sparse solver, so one
// very large component no longer runs to completion after the
// deadline. A phase is one Dijkstra over the component; checking every
// phase would be nearly free too, but batching keeps the check out of
// profiles entirely.
const jvCancelInterval = 32

// solveSparse is the sparse Jonker–Volgenant solver: shortest
// augmenting paths with potentials over CSR adjacency lists, one row
// inserted per phase, Dijkstra with a 4-ary heap over pooled storage.
//
// Maximum-weight (partial) matching reduces to a minimum-cost
// assignment that is perfect on the rows: costs are maxW−w (≥ 0), and
// every row gets a private virtual slack column of cost maxW (weight
// 0), the "stay unmatched" option — exactly the padding the dense
// solver materializes, kept implicit here. Each phase runs Dijkstra
// over reduced costs from the new row and stops at the first free
// column popped; that column is the cheapest because free columns all
// carry potential 0 (a free column is finalized only as the target, so
// it is never updated). The standard potential update then keeps every
// reduced cost ≥ 0 with matched edges tight. O(V·E·log V) per
// component worst case, with phases that in practice stay local to the
// inserted row. The smaller side always plays the rows, so phase count
// is min(nL, nR). Cancellation is checked every jvCancelInterval
// phases; a cancelled solve returns the context error with the
// matching state abandoned.
func solveSparse(c component, ctx *solve.Ctx) ([]int32, error) {
	scr, _ := ctx.GetScratch(jvKey{}).(*jvScratch)
	if scr == nil {
		scr = new(jvScratch)
	}
	defer ctx.PutScratch(jvKey{}, scr)
	if c.nR < c.nL {
		// Transpose: matched edge indices are side-agnostic.
		scr.flip = solve.Grow(scr.flip, len(c.edges))
		for k, e := range c.edges {
			scr.flip[k] = locEdge{li: e.rj, rj: e.li, ei: e.ei, w: e.w}
		}
		c = component{nL: c.nR, nR: c.nL, edges: scr.flip}
	}
	nL, nR := c.nL, c.nR
	// CSR adjacency, rows in left-node order, each row sorted by right
	// node with parallel edges collapsed to the heaviest (first among
	// ties): a lighter parallel edge could never be matched — once the
	// heavier one tightens, the lighter one's reduced cost would go
	// negative, breaking the potential invariant — so it is dropped.
	deg := solve.Grow(scr.deg, nL+1)
	for i := range deg {
		deg[i] = 0
	}
	for _, e := range c.edges {
		deg[e.li+1]++
	}
	for i := 0; i < nL; i++ {
		deg[i+1] += deg[i]
	}
	adj := solve.Grow(scr.adj, len(c.edges))
	fill := solve.Grow(scr.fill, nL)
	copy(fill, deg[:nL])
	for _, e := range c.edges {
		adj[fill[e.li]] = e
		fill[e.li]++
	}
	pos := 0
	for i := 0; i < nL; i++ {
		row := adj[deg[i]:deg[i+1]]
		slices.SortStableFunc(row, func(a, b locEdge) int {
			if a.rj != b.rj {
				return cmp.Compare(a.rj, b.rj)
			}
			return cmp.Compare(b.w, a.w)
		})
		start := pos
		for k, e := range row {
			if k > 0 && e.rj == row[k-1].rj {
				continue
			}
			adj[pos] = e
			pos++
		}
		deg[i] = int32(start)
	}
	deg[nL] = int32(pos)
	adj = adj[:pos]

	maxW := 0.0
	for _, e := range c.edges {
		if e.w > maxW {
			maxW = e.w
		}
	}

	const inf = math.MaxFloat64
	// Column j of the virtual slack block is nR+i for row i; node ids in
	// the heap are: rows [0,nL), real columns [nL,nL+nR), virtual
	// columns [nL+nR, nL+nR+nL).
	pL := solve.Grow(scr.pL, nL)
	pR := solve.Grow(scr.pR, nR)
	pV := solve.Grow(scr.pV, nL)
	for i := range pL {
		pL[i], pV[i] = 0, 0
	}
	for j := range pR {
		pR[j] = 0
	}
	mL := solve.Grow(scr.mL, nL) // row -> matched column (real j, or nR+i for the slack), -1 free
	mR := solve.Grow(scr.mR, nR) // real column -> matched row, -1 free
	eL := solve.Grow(scr.eL, nL) // row -> matched edge index into the edge list, -1 on slack
	for i := range mL {
		mL[i], eL[i] = -1, -1
	}
	for j := range mR {
		mR[j] = -1
	}
	dL := solve.Grow(scr.dL, nL)
	dR := solve.Grow(scr.dR, nR)
	dV := solve.Grow(scr.dV, nL)
	doneL := solve.Grow(scr.doneL, nL)
	doneR := solve.Grow(scr.doneR, nR)
	doneV := solve.Grow(scr.doneV, nL)
	parentR := solve.Grow(scr.parentR, nR) // arc index into adj reaching each real column
	// Persist the grown buffers so the pooled scratch keeps its
	// high-water capacities across components.
	scr.deg, scr.fill, scr.adj = deg, fill, adj[:cap(adj)]
	scr.pL, scr.pR, scr.pV = pL, pR, pV
	scr.mL, scr.mR, scr.eL, scr.parentR = mL, mR, eL, parentR
	scr.dL, scr.dR, scr.dV = dL, dR, dV
	scr.doneL, scr.doneR, scr.doneV = doneL, doneR, doneV
	// Re-slice every per-node array to its side's length so the
	// bounds-check prover sees the equalities the fused loops below
	// rely on (the grow helpers hide them, costing ~15% on
	// matching-dominated benches otherwise).
	dL, dV, doneL, doneV = dL[:nL], dV[:nL], doneL[:nL], doneV[:nL]
	pL, pV, mL, eL = pL[:nL], pV[:nL], mL[:nL], eL[:nL]
	dR, doneR, pR, mR, parentR = dR[:nR], doneR[:nR], pR[:nR], mR[:nR], parentR[:nR]

	pq := nodeHeap{s: scr.heap[:0]}
	for row := 0; row < nL; row++ {
		if row%jvCancelInterval == jvCancelInterval-1 {
			if err := ctx.Err(); err != nil {
				scr.heap = pq.s[:0]
				return nil, err
			}
		}
		// Per-phase reinit as single-purpose loops: the bool resets
		// compile to memclr and the constant fills stay tight, where a
		// fused multi-slice loop pays interleaved-store stalls.
		for i := range dL {
			dL[i] = inf
		}
		for i := range dV {
			dV[i] = inf
		}
		for j := range dR {
			dR[j] = inf
		}
		clear(doneL)
		clear(doneV)
		clear(doneR)
		for j := range parentR {
			parentR[j] = -1
		}
		pq.s = pq.s[:0]
		dL[row] = 0
		pq.push(nodeDist{node: int32(row)})
		target := int32(-1) // column node id (real or virtual)
		dT := inf
		for len(pq.s) > 0 {
			cur := pq.pop()
			switch {
			case cur.node < int32(nL): // row
				li := cur.node
				if doneL[li] || cur.d > dL[li] {
					continue
				}
				doneL[li] = true
				for k := deg[li]; k < deg[li+1]; k++ {
					a := adj[k]
					if mL[li] == a.rj {
						continue // the matched edge is traversed backward only
					}
					nd := cur.d + (maxW - a.w - pL[li] - pR[a.rj])
					if nd < dR[a.rj] {
						dR[a.rj] = nd
						parentR[a.rj] = k
						pq.push(nodeDist{d: nd, node: int32(nL) + a.rj})
					}
				}
				if mL[li] != int32(nR)+li {
					// The row's private slack column (stay unmatched).
					if nd := cur.d + (maxW - pL[li] - pV[li]); nd < dV[li] {
						dV[li] = nd
						pq.push(nodeDist{d: nd, node: int32(nL) + int32(nR) + li})
					}
				}
			case cur.node < int32(nL)+int32(nR): // real column
				rj := cur.node - int32(nL)
				if doneR[rj] || cur.d > dR[rj] {
					continue
				}
				if mR[rj] == -1 {
					target, dT = cur.node, cur.d
				} else {
					doneR[rj] = true
					li := mR[rj]
					if cur.d < dL[li] {
						// The matched edge is tight, so the row is
						// reached at the same distance.
						dL[li] = cur.d
						pq.push(nodeDist{d: cur.d, node: li})
					}
				}
			default: // virtual column of row cur.node - nL - nR
				li := cur.node - int32(nL) - int32(nR)
				if doneV[li] || cur.d > dV[li] {
					continue
				}
				if mL[li] != int32(nR)+li {
					target, dT = cur.node, cur.d
				} else {
					// Matched slack columns relay back to their row; with
					// the slack edge tight this cannot happen before the
					// row itself was popped, so nothing to do.
					doneV[li] = true
				}
			}
			if target >= 0 {
				break
			}
		}
		// A target always exists: the inserted row's own slack column is
		// free and reachable. Update the potentials of the finalized
		// nodes (pL[i] += dT - dL[i], column potentials mirrored), which
		// keeps all reduced costs ≥ 0 and matched edges tight; free
		// columns are never finalized before becoming the target, so
		// they keep potential 0 and "first free column popped" is the
		// cheapest augmenting path.
		for i, done := range doneL {
			if done {
				pL[i] += dT - dL[i]
			}
		}
		for i, done := range doneV {
			if done {
				pV[i] -= dT - dV[i]
			}
		}
		for j, done := range doneR {
			if done {
				pR[j] -= dT - dR[j]
			}
		}
		// Augment: flip the path from the target column back to the
		// inserted (free) row. Columns are tracked in mL as local ids
		// (real j, or nR+i for row i's slack); heap node c is nL + that.
		for t := target; ; {
			var li int32
			col := t - int32(nL)
			if col < int32(nR) {
				li = adj[parentR[col]].li
			} else {
				li = col - int32(nR)
			}
			prev := mL[li]
			if col < int32(nR) {
				mL[li], eL[li], mR[col] = col, adj[parentR[col]].ei, li
			} else {
				mL[li], eL[li] = col, -1
			}
			if prev == -1 {
				break // reached the freshly inserted row
			}
			t = int32(nL) + prev
		}
	}
	scr.heap = pq.s[:0]
	var picked []int32
	for i := 0; i < nL; i++ {
		if eL[i] >= 0 {
			picked = append(picked, eL[i])
		}
	}
	return picked, nil
}

// nodeDist is a Dijkstra heap entry; nodes < nL are left, the rest
// right (shifted by nL).
type nodeDist struct {
	d    float64
	node int32
}

// nodeHeap is a 4-ary min-heap on d over pooled storage. container/heap
// would box every entry through an interface; an explicit slice keeps
// the inner loop allocation-free, and the 4-ary layout halves the tree
// depth, trading cheap in-cache sibling comparisons on pop for fewer
// levels on push — a measurable constant-factor win on the
// matching-dominated workloads (see ROADMAP.md for the before/after).
type nodeHeap struct{ s []nodeDist }

func (h *nodeHeap) push(x nodeDist) {
	h.s = append(h.s, x)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h.s[p].d <= h.s[i].d {
			break
		}
		h.s[p], h.s[i] = h.s[i], h.s[p]
		i = p
	}
}

func (h *nodeHeap) pop() nodeDist {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		first := i<<2 + 1
		if first >= len(h.s) {
			break
		}
		end := first + 4
		if end > len(h.s) {
			end = len(h.s)
		}
		small := i
		for k := first; k < end; k++ {
			if h.s[k].d < h.s[small].d {
				small = k
			}
		}
		if small == i {
			break
		}
		h.s[i], h.s[small] = h.s[small], h.s[i]
		i = small
	}
	return top
}
