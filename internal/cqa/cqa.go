// Package cqa implements consistent query answering over subset
// repairs — the framework of Arenas, Bertossi and Chomicki that the
// paper's introduction builds on: the *consistent* (certain) answers to
// a query are those returned in every subset repair, and the *possible*
// answers those returned in at least one.
//
// Queries are selection–projection over the single relation: a
// conjunction of attribute = constant filters followed by a projection.
// Answers are computed by enumerating subset repairs (internal/
// enumerate), so the package is bounded to small instances; it is
// intended as the semantic companion of the repair algorithms, not as a
// scalable CQA engine (first-order rewritability is out of scope).
package cqa

import (
	"fmt"
	"sort"

	"repro/internal/enumerate"
	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/table"
)

// Filter is an equality selection on one attribute.
type Filter struct {
	Attr  int
	Value table.Value
}

// Query is a selection–projection query over the relation.
type Query struct {
	sc      *schema.Schema
	filters []Filter
	project schema.AttrSet
}

// NewQuery builds a query; project must be nonempty and filters must
// address schema attributes.
func NewQuery(sc *schema.Schema, project schema.AttrSet, filters ...Filter) (*Query, error) {
	if sc == nil {
		return nil, fmt.Errorf("cqa: nil schema")
	}
	if project.IsEmpty() || !project.IsSubsetOf(sc.AllAttrs()) {
		return nil, fmt.Errorf("cqa: projection must be a nonempty subset of %s", sc)
	}
	for _, f := range filters {
		if f.Attr < 0 || f.Attr >= sc.Arity() {
			return nil, fmt.Errorf("cqa: filter attribute %d outside %s", f.Attr, sc)
		}
	}
	return &Query{sc: sc, filters: filters, project: project}, nil
}

// Columns names the query's output attributes in schema order, the
// order every answer tuple lists its values in.
func (q *Query) Columns() []string { return q.sc.SetNames(q.project) }

// Eval returns the (set-semantics) answers of the query on one table,
// as projection keys mapped to representative tuples.
func (q *Query) Eval(t *table.Table) map[string]table.Tuple {
	out := map[string]table.Tuple{}
	for _, r := range t.Rows() {
		ok := true
		for _, f := range q.filters {
			if r.Tuple[f.Attr] != f.Value {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		proj := make(table.Tuple, 0, q.project.Len())
		for _, p := range q.project.Positions() {
			proj = append(proj, r.Tuple[p])
		}
		out[table.KeyOf(r.Tuple, q.project)] = proj
	}
	return out
}

// Answers is the outcome of consistent query answering.
type Answers struct {
	// Certain are the answers present in every subset repair.
	Certain []table.Tuple
	// Possible are the answers present in at least one subset repair.
	Possible []table.Tuple
	// Repairs is the number of subset repairs inspected.
	Repairs int
}

// ConsistentAnswers computes the certain and possible answers of q on t
// under ds by enumerating all subset repairs.
func ConsistentAnswers(ds *fd.Set, t *table.Table, q *Query) (*Answers, error) {
	reps, count, err := enumerate.SubsetRepairs(ds, t, 0)
	if err != nil {
		return nil, err
	}
	if count != len(reps) {
		return nil, fmt.Errorf("cqa: enumeration truncated")
	}
	certain := map[string]table.Tuple{}
	possible := map[string]table.Tuple{}
	for i, rep := range reps {
		ans := q.Eval(rep)
		for k, v := range ans {
			possible[k] = v
		}
		if i == 0 {
			for k, v := range ans {
				certain[k] = v
			}
			continue
		}
		for k := range certain {
			if _, ok := ans[k]; !ok {
				delete(certain, k)
			}
		}
	}
	return &Answers{
		Certain:  sortedTuples(certain),
		Possible: sortedTuples(possible),
		Repairs:  len(reps),
	}, nil
}

func sortedTuples(m map[string]table.Tuple) []table.Tuple {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]table.Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
