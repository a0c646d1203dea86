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
// the covers, and the repairs, are byte-identical. The pairs stay row
// positions: Bar-Yehuda–Even runs on them directly, and only the exact
// search builds a graph.

import (
	"strconv"

	"repro/internal/graph"
	"repro/internal/schema"
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
	t    *table.Table
	rows []table.Row
	cols []*colKeys // indexed by attribute
}

func newKeySet(t *table.Table) *keySet {
	return &keySet{t: t, rows: t.Rows(), cols: make([]*colKeys, t.Schema().Arity())}
}

// col compiles column a, parsing each distinct value once: rows with
// equal dictionary codes hold equal strings.
func (k *keySet) col(a int) *colKeys {
	if k.cols[a] == nil {
		codes, distinct := k.t.ProjectionCodes(schema.Singleton(a))
		parsed := make([]int8, distinct) // by code: 0 not yet parsed, 1 numeric, -1 not numeric
		nums := make([]float64, distinct)
		ck := &colKeys{isNum: make([]bool, len(k.rows)), num: make([]float64, len(k.rows))}
		for ri, cd := range codes {
			if parsed[cd] == 0 {
				parsed[cd] = -1
				if f, err := strconv.ParseFloat(k.rows[ri].Tuple[a], 64); err == nil {
					parsed[cd], nums[cd] = 1, f
				}
			}
			ck.isNum[ri], ck.num[ri] = parsed[cd] > 0, nums[cd]
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
// under the seed's compare, classes numbered by first appearance:
// numeric values sharing a float (e.g. "1" and "1.0") share a class,
// and every other value is a class of its own. Equal dictionary codes
// hold equal strings, so each code gets its class once. It returns the
// classes and their count.
func (k *keySet) eqClasses(a int) ([]int32, int) {
	ck := k.col(a)
	codes, distinct := k.t.ProjectionCodes(schema.Singleton(a))
	class := make([]int32, distinct) // by code: class + 1, 0 until seen
	nums := make(map[float64]int32)
	next := int32(0)
	out := make([]int32, len(codes))
	for ri, cd := range codes {
		if class[cd] == 0 {
			if !ck.isNum[ri] {
				next++
				class[cd] = next
			} else if id, ok := nums[ck.num[ri]]; ok {
				class[cd] = id
			} else {
				next++
				class[cd], nums[ck.num[ri]] = next, next
			}
		}
		out[ri] = class[cd] - 1
	}
	return out, int(next)
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

// scan appends the unit's violating pairs to buf as graph.PackPair
// keys.
func (u denialUnit) scan(k *keySet, buf []uint64) []uint64 {
	if u.members != nil {
		for i := 0; i < len(u.members); i++ {
			for j := i + 1; j < len(u.members); j++ {
				if u.cn.violatesKeys(k, u.members[i], u.members[j]) {
					buf = append(buf, graph.PackPair(u.members[i], u.members[j]))
				}
			}
		}
		return buf
	}
	for i := u.lo; i < u.hi; i++ {
		for j := i + 1; j < u.n; j++ {
			if u.cn.violatesKeys(k, i, j) {
				buf = append(buf, graph.PackPair(i, j))
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
	c.Stats().Add(solve.DenialPredicates, int64(atoms))
	keys := newKeySet(t)
	var units []denialUnit
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
		combined, bound := keys.eqClasses(join[0])
		for _, a := range join[1:] {
			cls, _ := keys.eqClasses(a)
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
			bound = len(merge)
		}
		for _, members := range table.GroupLabels(combined, bound) {
			if len(members) >= 2 {
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
	unitEdges := make([][]uint64, len(units))
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
	return graph.SortPairs(unitEdges), nil
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

// ExactSRepairCtx is ExactSRepair on the encoded core under a solve
// context; the cover search honors the context's cancellation. Results
// are byte-identical to ExactSRepair.
func ExactSRepairCtx(c *solve.Ctx, cs []*Constraint, t *table.Table) (*table.Table, error) {
	pairs, err := conflictPairs(c, cs, t)
	if err != nil {
		return nil, err
	}
	cover, err := graph.FromPairs(t.Weights(), pairs).ExactMinVertexCoverCtx(c)
	if err != nil {
		return nil, err
	}
	return t.Without(func(ri int) bool { return cover[ri] }), nil
}

// Approx2SRepairCtx is Approx2SRepair on the encoded core: polynomial,
// and near-linear when every constraint has a join attribute with small
// groups. Results are byte-identical to Approx2SRepair.
func Approx2SRepairCtx(c *solve.Ctx, cs []*Constraint, t *table.Table) (*table.Table, error) {
	pairs, err := conflictPairs(c, cs, t)
	if err != nil {
		return nil, err
	}
	cover := graph.BarYehudaEven(t.Weights(), pairs)
	return t.Without(func(ri int) bool { return cover[ri] }), nil
}
