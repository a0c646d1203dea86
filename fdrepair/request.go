package fdrepair

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ParseRequest builds a checked Request running algo over t from the
// text vocabulary fdrepaird's query string and the fdrepair CLI's flags
// share. Every key is repeatable:
//
//	fd=A B -> C          a functional dependency (ParseFDs)
//	cfd=A -> B | v,_ -> _  a conditional FD (ParseConditionalFD)
//	dc=t1.A = t2.A & t1.B != t2.B  a binary denial constraint (ParseDenial)
//	project=A,B          CQA projection attributes, comma-separated;
//	                     spaces around names are trimmed, and the
//	                     answers' columns come back in schema order
//	                     (CQAQuery.Columns)
//	where=A=v            a CQA equality filter
//	prefer=3>7           a tuple priority: id 3 is preferred over id 7
//
// Every parameter present must parse, whether or not algo reads it (a
// malformed fd is an error under algo cfd too); other keys are
// ignored. The returned Request passes algo's input check, so a missing
// input fails here, naming the parameter, rather than in the solver.
func ParseRequest(t *Table, algo Algorithm, params map[string][]string) (Request, error) {
	if t == nil {
		return Request{}, errors.New("fdrepair: nil Table")
	}
	sc := t.Schema()
	req := Request{Table: t, Algorithm: algo}
	var err error
	if specs := params["fd"]; len(specs) > 0 {
		if req.FDs, err = ParseFDs(sc, specs...); err != nil {
			return Request{}, fmt.Errorf("bad fd: %w", err)
		}
	}
	for _, spec := range params["cfd"] {
		c, err := ParseConditionalFD(sc, spec)
		if err != nil {
			return Request{}, fmt.Errorf("bad cfd: %w", err)
		}
		req.CFDs = append(req.CFDs, c)
	}
	for _, spec := range params["dc"] {
		c, err := ParseDenial(sc, spec)
		if err != nil {
			return Request{}, fmt.Errorf("bad dc: %w", err)
		}
		req.Denial = append(req.Denial, c)
	}
	var project []string
	for _, list := range params["project"] {
		for _, a := range strings.Split(list, ",") {
			if a = strings.TrimSpace(a); a != "" {
				project = append(project, a)
			}
		}
	}
	var filters []CQAFilter
	for _, cond := range params["where"] {
		attr, val, ok := strings.Cut(cond, "=")
		pos, known := sc.AttrIndex(strings.TrimSpace(attr))
		if !ok || !known {
			return Request{}, fmt.Errorf("bad where %q (want attr=value)", cond)
		}
		filters = append(filters, CQAFilter{Attr: pos, Value: val})
	}
	if len(project) > 0 || len(filters) > 0 {
		if req.Query, err = NewCQAQuery(sc, project, filters...); err != nil {
			return Request{}, fmt.Errorf("bad query: %w", err)
		}
	}
	for _, p := range params["prefer"] {
		a, b, ok := strings.Cut(p, ">")
		ai, errA := strconv.Atoi(strings.TrimSpace(a))
		bi, errB := strconv.Atoi(strings.TrimSpace(b))
		if !ok || errA != nil || errB != nil {
			return Request{}, fmt.Errorf("bad prefer %q (want id>id)", p)
		}
		if req.Priority == nil {
			req.Priority = NewPriority()
		}
		req.Priority.Add(ai, bi)
	}
	if err := req.check(); err != nil {
		return Request{}, err
	}
	return req, nil
}
