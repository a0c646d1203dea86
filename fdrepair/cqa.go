package fdrepair

import (
	"repro/internal/cqa"
)

// CQAFilter is an equality selection for consistent query answering.
type CQAFilter = cqa.Filter

// CQAQuery is a selection–projection query evaluated under repair
// semantics.
type CQAQuery = cqa.Query

// CQAAnswers holds the certain and possible answers of a query.
type CQAAnswers = cqa.Answers

// NewCQAQuery builds a selection–projection query: project names the
// output attributes; filters are attribute = value selections.
func NewCQAQuery(sc *Schema, project []string, filters ...CQAFilter) (*CQAQuery, error) {
	set, err := sc.Set(project...)
	if err != nil {
		return nil, err
	}
	return cqa.NewQuery(sc, set, filters...)
}

// ConsistentAnswers computes the certain answers (true in every subset
// repair) and possible answers (true in some subset repair) of the
// query — the consistent-query-answering semantics of Arenas et al.
// that motivates the paper. Repairs are enumerated per conflict
// component, so the enumeration bound applies to each component, not
// to the table.
func ConsistentAnswers(ds *FDSet, t *Table, q *CQAQuery) (*CQAAnswers, error) {
	return std.ConsistentAnswers(ds, t, q)
}

// ConsistentAnswers is the Solver-scoped ConsistentAnswers: repairs
// are factorized over the conflict graph's components, each
// enumerating as one scheduler task, so tables of any size answer
// exactly as long as every individual conflict component stays within
// the enumeration bound.
func (s *Solver) ConsistentAnswers(ds *FDSet, t *Table, q *CQAQuery) (*CQAAnswers, error) {
	res := s.Solve(Request{FDs: ds, Table: t, Query: q, Algorithm: AlgoCQA})
	return res.CQA, res.Err
}
