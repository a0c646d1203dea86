package cqa

// The encoded CQA engine: instead of materializing every subset repair
// and evaluating the query on each (the seed path — exponential in the
// number of conflict components), answers are computed by factorizing
// the repairs over the conflict graph's components. Subset repairs are
// exactly: every conflict-free tuple, plus one maximal independent set
// per conflict component, chosen independently. Hence
//
//   - possible answers = the query's answers on t itself (every tuple
//     belongs to some repair);
//   - an answer is certain iff a conflict-free tuple produces it, or
//     some component's every maximal independent set contains a
//     producer;
//   - the repair count is the product of per-component counts.
//
// Components enumerate independently (Bron–Kerbosch with pivoting, one
// 64-bit set per component) and fan out on the solve context's
// scheduler, so the enumeration bound applies per component instead of
// per table: tables with thousands of small conflict components answer
// in linear time where the seed path needs 2^components repairs.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/enumerate"
	"repro/internal/fd"
	"repro/internal/solve"
	"repro/internal/table"
)

// matches reports whether the row passes every filter.
func (q *Query) matches(tup table.Tuple) bool {
	for _, f := range q.filters {
		if tup[f.Attr] != f.Value {
			return false
		}
	}
	return true
}

// componentAnswers enumerates one component's maximal independent sets
// and returns the projection keys produced by every one of them (the
// component's certain contribution) plus the set count. adj[i] is a
// bitset over member ordinals; produced[i] is the member's answer key
// ("" when the member fails the filters).
func componentAnswers(adj []uint64, produced []string) (certain map[string]bool, count int) {
	enumerate.MaximalIndependentSets(adj, func(set uint64) {
		count++
		keys := map[string]bool{}
		for m := set; m != 0; m &= m - 1 {
			if k := produced[bits.TrailingZeros64(m)]; k != "" {
				keys[k] = true
			}
		}
		if certain == nil {
			certain = keys
			return
		}
		for k := range certain {
			if !keys[k] {
				delete(certain, k)
			}
		}
	})
	return certain, count
}

// ConsistentAnswersCtx is ConsistentAnswers on the encoded core under a
// solve context: the conflict graph is factorized into components, each
// component's maximal independent sets enumerate as one scheduler task,
// and certain/possible answers assemble from per-component
// intersections instead of whole-table repair enumeration. The
// enumeration bound (64 tuples) applies per conflict component rather
// than per table. Answers are identical to ConsistentAnswers wherever
// the seed path can run.
func ConsistentAnswersCtx(c *solve.Ctx, ds *fd.Set, t *table.Table, q *Query) (*Answers, error) {
	if q == nil {
		return nil, fmt.Errorf("cqa: nil query")
	}
	rows := t.Rows()
	n := len(rows)

	// Per-row query evaluation, once: filter match and projection key.
	produced := make([]string, n) // "" = row fails the filters
	proj := map[string]table.Tuple{}
	for ri := range rows {
		if !q.matches(rows[ri].Tuple) {
			continue
		}
		k := table.KeyOf(rows[ri].Tuple, q.project)
		produced[ri] = k
		if _, ok := proj[k]; !ok {
			out := make(table.Tuple, 0, q.project.Len())
			for _, p := range q.project.Positions() {
				out = append(out, rows[ri].Tuple[p])
			}
			proj[k] = out
		}
	}

	// Conflict components via union-find over row positions.
	pairs := t.ConflictPairs(ds)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	conflicted := make([]bool, n)
	for _, e := range pairs {
		u, v := e[0], e[1]
		conflicted[u], conflicted[v] = true, true
		ru, rv := find(u), find(v)
		if ru != rv {
			parent[ru] = rv
		}
	}

	// Certain answers from conflict-free rows (present in every repair).
	certain := map[string]bool{}
	for ri := range rows {
		if !conflicted[ri] && produced[ri] != "" {
			certain[produced[ri]] = true
		}
	}

	// Bucket conflicted rows by component root, in row order.
	compOf := make(map[int32]int32)
	var comps [][]int32
	for ri := int32(0); ri < int32(n); ri++ {
		if !conflicted[ri] {
			continue
		}
		root := find(ri)
		ci, ok := compOf[root]
		if !ok {
			ci = int32(len(comps))
			compOf[root] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], ri)
	}
	for _, comp := range comps {
		if len(comp) > enumerate.MaxEnumVertices {
			return nil, fmt.Errorf("cqa: conflict component with %d tuples exceeds the %d-tuple enumeration bound", len(comp), enumerate.MaxEnumVertices)
		}
	}
	// Per-component adjacency bitsets over member ordinals.
	ordinal := make([]int32, n)
	for _, comp := range comps {
		for o, ri := range comp {
			ordinal[ri] = int32(o)
		}
	}
	adjs := make([][]uint64, len(comps))
	for ci, comp := range comps {
		adjs[ci] = make([]uint64, len(comp))
	}
	for _, e := range pairs {
		ci := compOf[find(e[0])]
		ou, ov := ordinal[e[0]], ordinal[e[1]]
		adjs[ci][ou] |= 1 << uint(ov)
		adjs[ci][ov] |= 1 << uint(ou)
	}

	// Enumerate each component's maximal independent sets independently.
	type compResult struct {
		certain map[string]bool
		count   int
	}
	results := make([]compResult, len(comps))
	err := c.ForEachBlock(len(comps),
		func(i int) int { return len(comps[i]) },
		func(wc *solve.Ctx, i int) error {
			if err := wc.Err(); err != nil {
				return err
			}
			keys := make([]string, len(comps[i]))
			for o, ri := range comps[i] {
				keys[o] = produced[ri]
			}
			cert, count := componentAnswers(adjs[i], keys)
			results[i] = compResult{certain: cert, count: count}
			return nil
		})
	if err != nil {
		return nil, err
	}
	repairs := 1
	for _, res := range results {
		for k := range res.certain {
			certain[k] = true
		}
		if res.count > 0 {
			if repairs > math.MaxInt/res.count {
				repairs = math.MaxInt
			} else {
				repairs *= res.count
			}
		}
	}
	c.Stats().Add(solve.CQACertain, int64(len(certain)))

	certTuples := make(map[string]table.Tuple, len(certain))
	for k := range certain {
		certTuples[k] = proj[k]
	}
	return &Answers{
		Certain:  sortedTuples(certTuples),
		Possible: sortedTuples(proj),
		Repairs:  repairs,
	}, nil
}
