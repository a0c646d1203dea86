package denial

// The encoded denial engine: conflict detection over precompiled
// comparison keys instead of per-pair string parsing. The seed path
// re-parses both values as floats on every compare — O(n²·|atoms|)
// ParseFloat calls; here every column referenced by an atom is compiled
// once into (isNumeric, float64) keys, equality atoms joining the two
// tuple variables on one attribute become group-by keys (a violating
// pair must agree on them under the seed's compare, so conflicts only
// live inside groups), and the residual atoms are evaluated pairwise on
// the keys. Constraints with no such equality atom fall back to a
// chunk-parallel pairwise scan — still with compiled keys. Units fan
// out on the solve context's scheduler; the merged edge list is sorted
// and deduplicated, reproducing the seed's conflict graph exactly, so
// the unchanged vertex-cover solvers return byte-identical repairs.

import (
	"slices"
	"strconv"

	"repro/internal/graph"
	"repro/internal/solve"
	"repro/internal/table"
)

// denialChunkRows is the first-index chunk width of the ungrouped
// pairwise scan; each chunk is one scheduler task.
const denialChunkRows = 256

// colKeys is one column compiled for comparison: per row, whether the
// value parses as a float and its numeric value. The seed's compare
// semantics — numeric when both sides parse, lexicographic otherwise —
// are evaluated on these keys plus the original strings.
type colKeys struct {
	isNum []bool
	num   []float64
}

// keySet lazily compiles the columns a constraint set references.
type keySet struct {
	rows []table.Row
	cols []*colKeys // indexed by attribute
}

func newKeySet(rows []table.Row, arity int) *keySet {
	return &keySet{rows: rows, cols: make([]*colKeys, arity)}
}

func (k *keySet) col(a int) *colKeys {
	if k.cols[a] == nil {
		ck := &colKeys{isNum: make([]bool, len(k.rows)), num: make([]float64, len(k.rows))}
		for ri := range k.rows {
			if f, err := strconv.ParseFloat(k.rows[ri].Tuple[a], 64); err == nil {
				ck.isNum[ri], ck.num[ri] = true, f
			}
		}
		k.cols[a] = ck
	}
	return k.cols[a]
}

// cmpKeys reproduces compare on compiled keys: numeric when both sides
// parsed, lexicographic on the original strings otherwise.
func (k *keySet) cmpKeys(ri int32, la int, rj int32, ra int) int {
	cl, cr := k.col(la), k.col(ra)
	if cl.isNum[ri] && cr.isNum[rj] {
		switch {
		case cl.num[ri] < cr.num[rj]:
			return -1
		case cl.num[ri] > cr.num[rj]:
			return 1
		default:
			return 0
		}
	}
	a, b := k.rows[ri].Tuple[la], k.rows[rj].Tuple[ra]
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// violatesKeys is Constraint.Violates on compiled keys: the unordered
// pair (u, v) of row indices violates when every atom holds under
// either assignment of (t1, t2).
func (cn *Constraint) violatesKeys(k *keySet, u, v int32) bool {
	return cn.orderedKeys(k, u, v) || cn.orderedKeys(k, v, u)
}

func (cn *Constraint) orderedKeys(k *keySet, t1, t2 int32) bool {
	for _, a := range cn.atoms {
		ru, rv := t1, t1
		if a.Left.Var == 1 {
			ru = t2
		}
		if a.Right.Var == 1 {
			rv = t2
		}
		cmp := k.cmpKeys(ru, a.Left.Attr, rv, a.Right.Attr)
		var ok bool
		switch a.Op {
		case OpEq:
			ok = cmp == 0
		case OpNeq:
			ok = cmp != 0
		case OpLt:
			ok = cmp < 0
		case OpLeq:
			ok = cmp <= 0
		case OpGt:
			ok = cmp > 0
		case OpGeq:
			ok = cmp >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// joinAttrs returns the attributes on which any violating pair must
// agree under compare: the atoms t1.A = t2.A joining the two tuple
// variables on one attribute. (Equality is symmetric, so the atom holds
// under either assignment exactly when the pair agrees on A.)
func (cn *Constraint) joinAttrs() []int {
	var out []int
	for _, a := range cn.atoms {
		if a.Op == OpEq && a.Left.Var != a.Right.Var && a.Left.Attr == a.Right.Attr {
			out = append(out, a.Left.Attr)
		}
	}
	return out
}

// eqClasses assigns each row an equality-class id for one attribute
// under the seed's compare: numeric values sharing a float (e.g. "1"
// and "1.0") share a class, non-numeric values class by string.
func (k *keySet) eqClasses(a int) []int32 {
	ck := k.col(a)
	out := make([]int32, len(k.rows))
	nums := make(map[float64]int32)
	strs := make(map[string]int32)
	next := int32(0)
	for ri := range k.rows {
		var id int32
		if ck.isNum[ri] {
			v, ok := nums[ck.num[ri]]
			if !ok {
				v = next
				next++
				nums[ck.num[ri]] = v
			}
			id = v
		} else {
			v, ok := strs[k.rows[ri].Tuple[a]]
			if !ok {
				v = next
				next++
				strs[k.rows[ri].Tuple[a]] = v
			}
			id = v
		}
		out[ri] = id
	}
	return out
}

// denialUnit is one scheduler task of the conflict scan: either one
// join group of a grouped constraint (members) or one first-index chunk
// [lo, hi) of an ungrouped constraint's pairwise scan.
type denialUnit struct {
	cn      *Constraint
	members []int32 // grouped: row indices, ascending; nil when chunked
	lo, hi  int32   // chunked: first-index range over all rows
	n       int32
}

func (u denialUnit) size() int {
	if u.members != nil {
		return len(u.members)
	}
	return int(u.hi - u.lo)
}

func (u denialUnit) scan(k *keySet, buf [][2]int32) [][2]int32 {
	if u.members != nil {
		for i := 0; i < len(u.members); i++ {
			for j := i + 1; j < len(u.members); j++ {
				if u.cn.violatesKeys(k, u.members[i], u.members[j]) {
					buf = append(buf, [2]int32{u.members[i], u.members[j]})
				}
			}
		}
		return buf
	}
	for i := u.lo; i < u.hi; i++ {
		for j := i + 1; j < u.n; j++ {
			if u.cn.violatesKeys(k, i, j) {
				buf = append(buf, [2]int32{i, j})
			}
		}
	}
	return buf
}

// conflictPairs computes the sorted, deduplicated row-index pairs
// violating at least one constraint — the seed ConflictGraph's edge set
// in the seed's order (ascending (i, j)).
func conflictPairs(c *solve.Ctx, cs []*Constraint, t *table.Table) ([][2]int32, error) {
	rows := t.Rows()
	n := len(rows)
	if n == 0 || len(cs) == 0 {
		return nil, nil
	}
	atoms := 0
	for _, cn := range cs {
		atoms += len(cn.atoms)
	}
	c.Stats().DenialPredicate(atoms)
	keys := newKeySet(rows, t.Schema().Arity())
	var units []denialUnit
	classCache := make(map[int][]int32)
	for _, cn := range cs {
		if err := c.Err(); err != nil {
			return nil, err
		}
		join := cn.joinAttrs()
		if len(join) == 0 {
			for lo := int32(0); lo < int32(n); lo += denialChunkRows {
				hi := lo + denialChunkRows
				if hi > int32(n) {
					hi = int32(n)
				}
				units = append(units, denialUnit{cn: cn, lo: lo, hi: hi, n: int32(n)})
			}
			continue
		}
		// Composite grouping: refine row classes attribute by attribute.
		combined := make([]int32, n)
		for gi, a := range join {
			cls, ok := classCache[a]
			if !ok {
				cls = keys.eqClasses(a)
				classCache[a] = cls
			}
			if gi == 0 {
				copy(combined, cls)
				continue
			}
			merge := make(map[[2]int32]int32, n)
			for ri := range combined {
				key := [2]int32{combined[ri], cls[ri]}
				id, ok := merge[key]
				if !ok {
					id = int32(len(merge))
					merge[key] = id
				}
				combined[ri] = id
			}
		}
		buckets := make(map[int32][]int32, n/2+1)
		var order []int32
		for ri := 0; ri < n; ri++ {
			g := combined[ri]
			if _, ok := buckets[g]; !ok {
				order = append(order, g)
			}
			buckets[g] = append(buckets[g], int32(ri))
		}
		for _, g := range order {
			if members := buckets[g]; len(members) >= 2 {
				units = append(units, denialUnit{cn: cn, members: members})
			}
		}
	}
	// Pre-touch every referenced column so the lazily compiled keySet is
	// read-only inside the parallel scan.
	for _, cn := range cs {
		for _, a := range cn.atoms {
			keys.col(a.Left.Attr)
			keys.col(a.Right.Attr)
		}
	}
	unitEdges := make([][][2]int32, len(units))
	err := c.ForEachBlock(len(units),
		func(i int) int { return units[i].size() },
		func(wc *solve.Ctx, i int) error {
			if err := wc.Err(); err != nil {
				return err
			}
			unitEdges[i] = units[i].scan(keys, nil)
			return nil
		})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, es := range unitEdges {
		total += len(es)
	}
	all := make([][2]int32, 0, total)
	for _, es := range unitEdges {
		all = append(all, es...)
	}
	slices.SortFunc(all, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	out := all[:0]
	prev := [2]int32{-1, -1}
	for _, e := range all {
		if e == prev {
			continue
		}
		prev = e
		out = append(out, e)
	}
	return out, nil
}

// ConflictGraphCtx is ConflictGraph on the encoded core under a solve
// context: compiled comparison keys, join-attribute grouping and a
// chunk-parallel fallback replace the seed's quadratic parse-per-pair
// scan. The edge list is identical to ConflictGraph's.
func ConflictGraphCtx(c *solve.Ctx, cs []*Constraint, t *table.Table) ([]table.ConflictEdge, error) {
	pairs, err := conflictPairs(c, cs, t)
	if err != nil {
		return nil, err
	}
	rows := t.Rows()
	out := make([]table.ConflictEdge, len(pairs))
	for i, e := range pairs {
		out[i] = table.ConflictEdge{ID1: rows[e[0]].ID, ID2: rows[e[1]].ID}
	}
	return out, nil
}

// repairProblemCtx builds the same vertex-cover instance as
// repairProblem (vertices are row positions, edges the sorted conflict
// pairs) from the encoded conflict scan.
func repairProblemCtx(c *solve.Ctx, cs []*Constraint, t *table.Table) (*graph.Graph, []int, error) {
	pairs, err := conflictPairs(c, cs, t)
	if err != nil {
		return nil, nil, err
	}
	ids := t.IDs()
	rows := t.Rows()
	weights := make([]float64, len(rows))
	for i := range rows {
		weights[i] = rows[i].Weight
	}
	g := graph.MustNewGraph(weights)
	for _, e := range pairs {
		g.AddEdgeUnchecked(int(e[0]), int(e[1]))
	}
	return g, ids, nil
}

// ExactSRepairCtx is ExactSRepair on the encoded core under a solve
// context; the cover search honors the context's cancellation. Results
// are byte-identical to ExactSRepair.
func ExactSRepairCtx(c *solve.Ctx, cs []*Constraint, t *table.Table) (*table.Table, error) {
	g, ids, err := repairProblemCtx(c, cs, t)
	if err != nil {
		return nil, err
	}
	cover, err := g.ExactMinVertexCoverCtx(c)
	if err != nil {
		return nil, err
	}
	return coverToSubset(t, ids, cover), nil
}

// Approx2SRepairCtx is Approx2SRepair on the encoded core: polynomial,
// and near-linear when every constraint has a join attribute with small
// groups. Results are byte-identical to Approx2SRepair.
func Approx2SRepairCtx(c *solve.Ctx, cs []*Constraint, t *table.Table) (*table.Table, error) {
	g, ids, err := repairProblemCtx(c, cs, t)
	if err != nil {
		return nil, err
	}
	return coverToSubset(t, ids, g.ApproxVertexCoverBE()), nil
}
