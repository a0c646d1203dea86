// Package srepair implements the paper's algorithms for optimal subset
// repairs (optimal S-repairs):
//
//   - OptSRepair (Algorithm 1) with its three subroutines CommonLHSRep,
//     ConsensusRep and MarriageRep (Subroutines 1–3), a polynomial-time
//     exact algorithm that succeeds exactly when OSRSucceeds does;
//   - OSRSucceeds (Algorithm 2) and a human-readable simplification
//     trace in the style of Example 3.5;
//   - Exact: an exponential-time baseline for arbitrary FD sets via
//     minimum-weight vertex cover of the conflict graph;
//   - Approx2: the polynomial 2-approximation of Proposition 3.3
//     (Bar-Yehuda–Even on the conflict graph).
package srepair

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/fd"
	"repro/internal/graph"
	"repro/internal/solve"
	"repro/internal/table"
)

// ErrNoSimplification is returned by OptSRepair when the FD set cannot
// be reduced to a trivial set by the three simplifications; by the
// dichotomy (Theorem 3.4) computing an optimal S-repair is then
// APX-complete, and the caller should fall back to Exact (small
// instances) or Approx2.
var ErrNoSimplification = errors.New("srepair: FD set admits no simplification (hard side of the dichotomy)")

// OptSRepair is Algorithm 1: it computes an optimal S-repair of t under
// ds in polynomial time, or fails with ErrNoSimplification when the FD
// set is on the hard side of the dichotomy. The returned table is a
// consistent subset of t minimizing dist_sub.
//
// The simplification chain is data-independent, so it is computed once
// (Trace); the recursion then runs over zero-copy views of t
// (row-index slices sharing t's dictionary encoding). Blocks are never
// materialized as intermediate tables — only the final repair builds a
// *Table.
//
// OptSRepair runs on the process-default solve context (serial, no
// stats); OptSRepairCtx threads an explicit per-solve context carrying
// the worker budget, scratch arenas, cancellation and stats.
func OptSRepair(ds *fd.Set, t *table.Table) (*table.Table, error) {
	return OptSRepairCtx(solve.Default(), ds, t)
}

// OptSRepairCtx is OptSRepair under an explicit solve context: sibling
// blocks fan out on c's worker budget, per-node scratch (group-by
// buffers, block result slices, matcher arenas) recycles through c's
// arena, and cancellation is honored at recursion and component
// boundaries (a cancelled solve returns c's context error). Results
// are byte-identical to the serial default-context solve.
func OptSRepairCtx(c *solve.Ctx, ds *fd.Set, t *table.Table) (*table.Table, error) {
	if !ds.Schema().SameAs(t.Schema()) {
		return nil, fmt.Errorf("srepair: FD set and table have different schemas")
	}
	steps, ok := Trace(ds)
	if !ok {
		return nil, ErrNoSimplification
	}
	if len(steps) == 0 {
		// Line 1–2: Δ is trivial, T is its own optimal S-repair.
		return t, nil
	}
	sv := solver{steps: steps, c: c}
	keep, err := sv.solve(table.NewView(t), 0)
	if err != nil {
		return nil, err
	}
	return table.ViewOfRows(t, keep).Materialize(), nil
}

// solver carries the precomputed simplification chain and the solve
// context through the view recursion: every node at depth d applies
// steps[d], so no FD-set reasoning happens per block, and every node
// draws scratch from (and checks cancellation on) the same per-solve
// context.
type solver struct {
	steps []fd.Simplification
	c     *solve.Ctx
}

// solve returns the row indices (into the view's backing table) of an
// optimal S-repair of the view.
func (s solver) solve(v table.View, depth int) ([]int32, error) {
	s.c.Stats().Node()
	if err := s.c.Err(); err != nil {
		return nil, err
	}
	if depth == len(s.steps) || v.Len() <= 1 {
		// Chain exhausted, or a singleton/empty block: always consistent,
		// so the block is its own optimal S-repair.
		return v.Rows(), nil
	}
	st := s.steps[depth]
	switch st.Kind {
	case fd.KindCommonLHS:
		return s.commonLHSRep(st, v, depth)
	case fd.KindConsensus:
		return s.consensusRep(st, v, depth)
	case fd.KindMarriage:
		return s.marriageRep(st, v, depth)
	default:
		return nil, fmt.Errorf("srepair: unknown simplification %v", st.Kind)
	}
}

// solveBlocks solves every group at depth+1, enqueuing independent
// blocks as tasks on the context's work-stealing scheduler — blocks at
// every recursion depth land on the same deques, so a deep chain whose
// fan-out happens far below the root still saturates the worker
// budget. Each block's recursion continues on the Ctx of whichever
// worker executes it (its deque, its arena shard). The returned
// block-result slice comes from the context arena; the caller releases
// it with PutInt32Slices after combining (the entries themselves may
// alias group storage and are copied out before any release).
func (s solver) solveBlocks(v table.View, groups [][]int32, depth int) ([][]int32, error) {
	reps := s.c.Int32Slices(len(groups))
	err := s.c.ForEachBlock(len(groups), func(i int) int { return len(groups[i]) }, func(wc *solve.Ctx, i int) error {
		rep, err := solver{steps: s.steps, c: wc}.solve(v.Subview(groups[i]), depth+1)
		if err != nil {
			return err
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		// The entries are only slice headers (their storage belongs to
		// the per-node groupings, recycled by those nodes' defers), so
		// the header slice itself can be pooled on the error path too.
		s.c.PutInt32Slices(reps)
		return nil, err
	}
	return reps, nil
}

// commonLHSRep is Subroutine 1: partition by the common-lhs attribute,
// solve each block under Δ − A, return the union.
func (s solver) commonLHSRep(st fd.Simplification, v table.View, depth int) ([]int32, error) {
	g := v.GroupByArena(s.c, st.Removed)
	// Deferred so cancelled solves recycle their scratch too; the
	// return value is always a fresh slice, copied out before the
	// deferred release runs.
	defer g.Release(s.c)
	reps, err := s.solveBlocks(v, g.Groups, depth)
	if err != nil {
		return nil, err
	}
	defer s.c.PutInt32Slices(reps)
	total := 0
	for _, rep := range reps {
		total += len(rep)
	}
	keep := make([]int32, 0, total)
	for _, rep := range reps {
		keep = append(keep, rep...)
	}
	sortRows(keep)
	return keep, nil
}

// consensusRep is Subroutine 2: partition by the consensus attributes,
// solve each block under Δ − X, return the heaviest block repair.
func (s solver) consensusRep(st fd.Simplification, v table.View, depth int) ([]int32, error) {
	if v.Len() == 0 {
		return v.Rows(), nil
	}
	g := v.GroupByArena(s.c, st.Removed)
	defer g.Release(s.c)
	reps, err := s.solveBlocks(v, g.Groups, depth)
	if err != nil {
		return nil, err
	}
	defer s.c.PutInt32Slices(reps)
	var best []int32
	bestW := math.Inf(-1)
	for _, rep := range reps {
		if w := v.Subview(rep).TotalWeight(); w > bestW {
			best, bestW = rep, w
		}
	}
	// best may alias a shared group bucket (a block that bottomed out
	// returns its rows verbatim), which the deferred release recycles —
	// copy it out before returning, and sort the copy (never the
	// bucket).
	best = slices.Clone(best)
	if !slices.IsSorted(best) {
		sortRows(best)
	}
	return best, nil
}

// marriageRep is Subroutine 3: group by the married pair (X1, X2),
// solve each group under Δ − X1X2, and combine the groups through a
// maximum-weight bipartite matching between the X1-values and the
// X2-values.
//
// The matching graph has exactly one edge per observed (a1, a2) block,
// so the edge list goes straight to the sparse engine — cost scales
// with the number of blocks the data contains, not with the product of
// distinct-value counts a dense matrix would pad to. Connected
// components of the marriage graph become tasks on the same
// work-stealing scheduler as the repair blocks.
func (s solver) marriageRep(st fd.Simplification, v table.View, depth int) ([]int32, error) {
	if v.Len() == 0 {
		return v.Rows(), nil
	}
	t := v.Table()
	// Node sets: distinct X1 and X2 projections, indexed by their
	// dictionary codes in order of first appearance within the view.
	codes1, n1 := t.ProjectionCodes(st.X1)
	codes2, n2 := t.ProjectionCodes(st.X2)
	v1Index := newCodeIndex(s.c, n1, v.Len())
	defer v1Index.release(s.c)
	v2Index := newCodeIndex(s.c, n2, v.Len())
	defer v2Index.release(s.c)
	for _, ri := range v.Rows() {
		v1Index.add(codes1[ri])
		v2Index.add(codes2[ri])
	}
	g := v.GroupByArena(s.c, st.X1.Union(st.X2))
	defer g.Release(s.c)
	reps, err := s.solveBlocks(v, g.Groups, depth)
	if err != nil {
		return nil, err
	}
	defer s.c.PutInt32Slices(reps)
	// Edge gi joins the block's X1-node to its X2-node, weighted by the
	// block's optimal S-repair; distinct blocks have distinct endpoint
	// pairs, so edge indices and group indices coincide.
	edges := getEdges(s.c, len(g.Groups))
	defer putEdges(s.c, edges)
	for gi, grp := range g.Groups {
		first := grp[0]
		edges[gi] = graph.Edge{
			I: v1Index.of(codes1[first]),
			J: v2Index.of(codes2[first]),
			W: v.Subview(reps[gi]).TotalWeight(),
		}
	}
	sm, err := graph.NewSparseMatcher(v1Index.len(), v2Index.len(), edges)
	if err != nil {
		return nil, err
	}
	sm.Ctx = s.c
	res, err := sm.Solve()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, gi := range res.Picked {
		total += len(reps[gi])
	}
	keep := make([]int32, 0, total)
	for _, gi := range res.Picked {
		keep = append(keep, reps[gi]...)
	}
	sortRows(keep)
	return keep, nil
}

// edgeKey pools marriage edge lists on the solve context, one list per
// recursion node actually running Subroutine 3.
type edgeKey struct{}

func getEdges(c *solve.Ctx, n int) []graph.Edge {
	var s []graph.Edge
	if v := c.GetScratch(edgeKey{}); v != nil {
		s = *v.(*[]graph.Edge)
	}
	return solve.Grow(s, n)
}

func putEdges(c *solve.Ctx, s []graph.Edge) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	c.PutScratch(edgeKey{}, &s)
}

// codeIndex maps dense projection codes to local node indices assigned
// by first appearance (the matching's node numbering). Dense scratch
// (drawn from the solve arena) when the table-wide code space is
// comparable to the view, a map when the view is a sliver of a huge
// table (so per-block cost stays O(block size), not O(table
// cardinality)).
type codeIndex struct {
	local []int32
	m     map[int32]int32
	n     int
}

func newCodeIndex(c *solve.Ctx, codes, viewLen int) *codeIndex {
	if codes > 4*viewLen+64 {
		return &codeIndex{m: make(map[int32]int32, viewLen)}
	}
	local := c.Int32s(codes)
	for i := range local {
		local[i] = -1
	}
	return &codeIndex{local: local}
}

// release recycles the dense scratch; the index is dead afterwards.
func (ci *codeIndex) release(c *solve.Ctx) {
	if ci.local != nil {
		c.PutInt32s(ci.local)
		ci.local = nil
	}
}

func (ci *codeIndex) add(code int32) {
	if ci.m != nil {
		if _, ok := ci.m[code]; !ok {
			ci.m[code] = int32(ci.n)
			ci.n++
		}
		return
	}
	if ci.local[code] < 0 {
		ci.local[code] = int32(ci.n)
		ci.n++
	}
}

func (ci *codeIndex) of(code int32) int {
	if ci.m != nil {
		return int(ci.m[code])
	}
	return int(ci.local[code])
}
func (ci *codeIndex) len() int { return ci.n }

// sortRows orders row indices ascending (= insertion order), keeping
// results deterministic regardless of block solve order.
func sortRows(rows []int32) { slices.Sort(rows) }

// OSRSucceeds is Algorithm 2: it reports whether OptSRepair succeeds on
// the FD set, i.e. whether the set simplifies to a trivial set. By
// Theorem 3.4 this is exactly the polynomial-time side of the dichotomy.
func OSRSucceeds(ds *fd.Set) bool {
	_, success := Trace(ds)
	return success
}

// Trace runs the simplification loop of OSRSucceeds and records each
// step, reproducing the ⇛-chains of Example 3.5. success is true iff
// the final set is trivial. The chain is cached on the (immutable) FD
// set, so repeated solves pay for it once.
func Trace(ds *fd.Set) (steps []fd.Simplification, success bool) {
	return ds.SimplificationChain()
}

// IsConsistentSubset verifies that s is a subset of t satisfying ds.
func IsConsistentSubset(ds *fd.Set, t, s *table.Table) bool {
	return s.IsSubsetOf(t) && s.Satisfies(ds)
}

// Cost returns dist_sub(s, t), the weight of the deleted tuples.
func Cost(t, s *table.Table) float64 { return table.DistSub(s, t) }

// conflictProblem builds the weighted vertex-cover view of the table:
// tuple ids become vertices, FD conflicts become edges.
func conflictProblem(ds *fd.Set, t *table.Table) (*graph.Graph, []int) {
	rows := t.Rows()
	ids := make([]int, len(rows))
	index := make(map[int]int, len(rows))
	weights := make([]float64, len(rows))
	for i, r := range rows {
		ids[i] = r.ID
		index[r.ID] = i
		weights[i] = r.Weight
	}
	g := graph.MustNewGraph(weights)
	for _, e := range t.ConflictGraph(ds) {
		// ConflictGraph already deduplicates and orients edges.
		g.AddEdgeUnchecked(index[e.ID1], index[e.ID2])
	}
	return g, ids
}

// coverToSubset deletes the covered vertices from t.
func coverToSubset(t *table.Table, ids []int, cover map[int]bool) *table.Table {
	var keep []int
	for i, id := range ids {
		if !cover[i] {
			keep = append(keep, id)
		}
	}
	return t.MustSubsetByIDs(keep)
}

// Exact computes an optimal S-repair for any FD set by solving minimum-
// weight vertex cover on the conflict graph exactly. Exponential in the
// worst case; it is the validation baseline for the hard side of the
// dichotomy and refuses very large instances. Runs on the process-
// default solve context; see ExactCtx.
func Exact(ds *fd.Set, t *table.Table) (*table.Table, error) {
	return ExactCtx(solve.Default(), ds, t)
}

// ExactCtx is Exact under an explicit solve context: the branch-and-
// bound cover search honors cancellation, so a deadline bounds the
// exponential worst case.
func ExactCtx(c *solve.Ctx, ds *fd.Set, t *table.Table) (*table.Table, error) {
	if !ds.Schema().SameAs(t.Schema()) {
		return nil, fmt.Errorf("srepair: FD set and table have different schemas")
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	g, ids := conflictProblem(ds, t)
	cover, err := g.ExactMinVertexCoverCtx(c)
	if err != nil {
		return nil, err
	}
	return coverToSubset(t, ids, cover), nil
}

// Approx2 computes a 2-optimal S-repair in polynomial time for any FD
// set (Proposition 3.3): Bar-Yehuda–Even weighted vertex cover on the
// conflict graph. The result is always a consistent subset with
// dist_sub at most twice the optimum. Runs on the process-default
// solve context; see Approx2Ctx.
func Approx2(ds *fd.Set, t *table.Table) (*table.Table, error) {
	return Approx2Ctx(solve.Default(), ds, t)
}

// Approx2Ctx is Approx2 under an explicit solve context (cancellation
// checked before the conflict graph is built).
func Approx2Ctx(c *solve.Ctx, ds *fd.Set, t *table.Table) (*table.Table, error) {
	if !ds.Schema().SameAs(t.Schema()) {
		return nil, fmt.Errorf("srepair: FD set and table have different schemas")
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	g, ids := conflictProblem(ds, t)
	cover := g.ApproxVertexCoverBE()
	return coverToSubset(t, ids, cover), nil
}

// MakeMaximal extends a consistent subset s of t to a subset repair in
// the local-minimality sense: restoring any deleted tuple breaks
// consistency. Deleted tuples are re-inserted greedily by decreasing
// weight (stable in insertion order), never increasing dist_sub.
//
// The greedy loop is near-linear: instead of cloning the table and
// re-checking all FDs per candidate, it keeps one lhs-code → rhs-code
// map per FD over the rows kept so far (a consistent set determines the
// rhs of every lhs group), so each candidate is admitted or rejected in
// O(|Δ|) map lookups against t's dictionary encoding.
func MakeMaximal(ds *fd.Set, t, s *table.Table) (*table.Table, error) {
	if !IsConsistentSubset(ds, t, s) {
		return nil, fmt.Errorf("srepair: input is not a consistent subset")
	}
	fds := ds.FDs()
	type fdCodes struct {
		lhs, rhs []int32
		rhsOf    map[int32]int32
	}
	codes := make([]fdCodes, len(fds))
	for i, f := range fds {
		lhs, _ := t.ProjectionCodes(f.LHS)
		rhs, _ := t.ProjectionCodes(f.RHS)
		codes[i] = fdCodes{lhs: lhs, rhs: rhs, rhsOf: make(map[int32]int32, s.Len())}
	}
	// Seed the per-FD group maps with the rows of s (a subset of t, so
	// t's codes apply to its rows).
	keep := make([]int, 0, t.Len())
	for _, id := range s.IDs() {
		ri, _ := t.IndexOf(id)
		keep = append(keep, id)
		for i := range codes {
			codes[i].rhsOf[codes[i].lhs[ri]] = codes[i].rhs[ri]
		}
	}
	// Candidates: deleted ids ordered by decreasing weight (stable).
	type cand struct {
		id, ri int
		w      float64
	}
	var cands []cand
	for ri, r := range t.Rows() {
		if !s.Has(r.ID) {
			cands = append(cands, cand{r.ID, ri, r.Weight})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].w > cands[j].w })
	for _, c := range cands {
		ok := true
		for i := range codes {
			if rhs, seen := codes[i].rhsOf[codes[i].lhs[c.ri]]; seen && rhs != codes[i].rhs[c.ri] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		keep = append(keep, c.id)
		for i := range codes {
			codes[i].rhsOf[codes[i].lhs[c.ri]] = codes[i].rhs[c.ri]
		}
	}
	return t.SubsetByIDs(keep)
}
