// Package srepair implements the paper's algorithms for optimal subset
// repairs (optimal S-repairs):
//
//   - OptSRepair (Algorithm 1), a polynomial-time exact algorithm that
//     succeeds exactly when OSRSucceeds does. It is one recursion: each
//     node partitions its rows on the attributes its simplification
//     step removes, solves the blocks, and combines them — union for a
//     common lhs, the heaviest block for a consensus FD, a
//     maximum-weight matching for an lhs marriage (Subroutines 1–3,
//     all in combine). BlockSolver exposes the root's blocks and that
//     same combine to resident sessions;
//   - OSRSucceeds (Algorithm 2) and a human-readable simplification
//     trace in the style of Example 3.5;
//   - Exact: an exponential-time baseline for arbitrary FD sets via
//     minimum-weight vertex cover of the conflict graph, which it
//     builds from the table's conflict pairs;
//   - Approx2: the polynomial 2-approximation of Proposition 3.3:
//     Bar-Yehuda–Even on the table's conflict pairs as they come, in
//     row positions, with no graph, id map or map cover in between.
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
// optimal S-repair of the view. Every node of Algorithm 1 has the same
// body: partition the rows on the attributes the node's simplification
// step removes (the common-lhs attribute, the consensus attributes, or
// the married pair X1∪X2), solve each block under the simplified set,
// and combine the block repairs by the step's rule.
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
	g := v.GroupByArena(s.c, st.Removed)
	// Deferred so cancelled solves recycle their scratch too; combine's
	// result is always a fresh slice, copied out before the deferred
	// release runs.
	defer g.Release(s.c)
	reps, err := s.solveBlocks(v, g.Groups, depth)
	if err != nil {
		return nil, err
	}
	defer s.c.PutInt32Slices(reps)
	return combine(s.c, st, v.Table(), v.Len(), g.Groups, reps, nil, nil, nil)
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

// combine is the combine step of one node of Algorithm 1, shared by
// the recursion and BlockSolver.Combine. groups partitions the node's
// rows (rows of them, all in t), each group ascending and the groups
// ordered by first row; reps[i] is an optimal repair of groups[i] and
// weights[i] its weight (nil weights: BlockWeight). The result is
//
//   - for a common lhs (Subroutine 1), the union of every block repair;
//   - for a consensus FD (Subroutine 2), the heaviest block repair, the
//     first on ties;
//   - for an lhs marriage (Subroutine 3), the union of the block
//     repairs a maximum-weight matching between the X1-values and the
//     X2-values picks, with one edge per block. The edge list goes
//     straight to the sparse engine, so cost scales with the number of
//     blocks, not with the product of distinct-value counts a dense
//     matrix would pad to; connected components become tasks on the
//     same scheduler as the repair blocks, and memo (nil: none) caches
//     them across calls.
//
// The row set is ascending. A union lands in *buf when buf is non-nil
// (valid until the next combine on it); every other result is freshly
// allocated.
func combine(c *solve.Ctx, st fd.Simplification, t *table.Table, rows int, groups, reps [][]int32, weights []float64, memo *MatchMemo, buf *[]int32) ([]int32, error) {
	weight := func(gi int) float64 {
		if weights == nil {
			return BlockWeight(t, reps[gi])
		}
		return weights[gi]
	}
	switch st.Kind {
	case fd.KindCommonLHS:
		return union(c, t.Len(), rows, reps, nil, buf), nil

	case fd.KindConsensus:
		var best []int32
		bestW := math.Inf(-1)
		for gi, rep := range reps {
			if w := weight(gi); w > bestW {
				best, bestW = rep, w
			}
		}
		// best may alias a shared group bucket (a block that bottomed out
		// returns its rows verbatim), which the caller recycles — copy it
		// out, and sort the copy (never the bucket).
		best = slices.Clone(best)
		if !slices.IsSorted(best) {
			slices.Sort(best)
		}
		return best, nil

	case fd.KindMarriage:
		// Node numbering by first appearance among the node's rows. The
		// earliest row carrying any X1 (or X2) code is necessarily the
		// first row of its block — an earlier row of the same block would
		// carry the same code — and groups are ordered by first row, so
		// scanning only the block-first rows visits the codes in the same
		// first-appearance order at O(blocks) instead of O(rows).
		codes1, n1 := t.ProjectionCodes(st.X1)
		codes2, n2 := t.ProjectionCodes(st.X2)
		v1Index := newCodeIndex(c, n1, rows)
		defer v1Index.release(c)
		v2Index := newCodeIndex(c, n2, rows)
		defer v2Index.release(c)
		// Edge gi joins block gi's X1-node to its X2-node; distinct
		// blocks have distinct endpoint pairs, so edge indices and group
		// indices coincide.
		edges := getEdges(c, len(groups))
		defer putEdges(c, edges)
		for gi, grp := range groups {
			first := grp[0]
			edges[gi] = graph.Edge{
				I: v1Index.index(codes1[first]),
				J: v2Index.index(codes2[first]),
				W: weight(gi),
			}
		}
		sm, err := graph.NewSparseMatcher(v1Index.len(), v2Index.len(), edges)
		if err != nil {
			return nil, err
		}
		sm.Ctx = c
		sm.Memo = memo
		res, err := sm.Solve()
		if err != nil {
			return nil, err
		}
		return union(c, t.Len(), rows, reps, res.Picked, buf), nil
	}
	return nil, fmt.Errorf("srepair: unknown simplification %v", st.Kind)
}

// unionKey pools union's membership bitmap on the solve context.
type unionKey struct{}

// union merges disjoint block repairs into one ascending row set: the
// reps at the picked indices (all of them when picked is nil), into
// *buf when buf is non-nil and a fresh slice otherwise. A node whose
// rows cover the whole n-row table marks a pooled membership bitmap
// and emits it in one linear pass, O(n) instead of O(n·log n); every
// node below concatenates and sorts in O(rows·log rows) rather than
// clear and scan an n-row bitmap.
func union(c *solve.Ctx, n, rows int, reps [][]int32, picked []int, buf *[]int32) []int32 {
	k := len(reps)
	if picked != nil {
		k = len(picked)
	}
	rep := func(i int) []int32 {
		if picked == nil {
			return reps[i]
		}
		return reps[picked[i]]
	}
	total := 0
	for i := range k {
		total += len(rep(i))
	}
	var keep []int32
	if buf != nil {
		keep = slices.Grow((*buf)[:0], total)
	} else {
		keep = make([]int32, 0, total)
	}
	if rows < n {
		for i := range k {
			keep = append(keep, rep(i)...)
		}
		slices.Sort(keep)
	} else {
		scr, _ := c.GetScratch(unionKey{}).(*[]bool)
		if scr == nil {
			scr = new([]bool)
		}
		in := solve.Grow(*scr, n)
		*scr = in
		defer c.PutScratch(unionKey{}, scr)
		clear(in)
		for i := range k {
			for _, ri := range rep(i) {
				in[ri] = true
			}
		}
		for ri, ok := range in {
			if ok {
				keep = append(keep, int32(ri))
			}
		}
	}
	if buf != nil {
		*buf = keep
	}
	return keep
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

// index returns the code's local node index, assigning the next one
// on the code's first sight.
func (ci *codeIndex) index(code int32) int {
	if ci.m != nil {
		l, ok := ci.m[code]
		if !ok {
			l = int32(ci.n)
			ci.m[code] = l
			ci.n++
		}
		return int(l)
	}
	if ci.local[code] < 0 {
		ci.local[code] = int32(ci.n)
		ci.n++
	}
	return int(ci.local[code])
}
func (ci *codeIndex) len() int { return ci.n }

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
	g := graph.FromPairs(t.Weights(), t.ConflictPairs(ds))
	cover, err := g.ExactMinVertexCoverCtx(c)
	if err != nil {
		return nil, err
	}
	return t.Without(func(ri int) bool { return cover[ri] }), nil
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
// checked before the conflict pairs are listed).
func Approx2Ctx(c *solve.Ctx, ds *fd.Set, t *table.Table) (*table.Table, error) {
	if !ds.Schema().SameAs(t.Schema()) {
		return nil, fmt.Errorf("srepair: FD set and table have different schemas")
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	cover := graph.BarYehudaEven(t.Weights(), t.ConflictPairs(ds))
	return t.Without(func(ri int) bool { return cover[ri] }), nil
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
