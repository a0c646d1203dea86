// Package reduction makes the paper's hardness machinery executable:
//
//   - the fact-wise reductions of Lemmas A.14–A.18, which map tuples
//     over the hard base schemas of Table 1 into tuples over an
//     arbitrary non-simplifiable FD set while preserving consistency of
//     pairs (the property the APX-hardness proofs rest on); the tests
//     verify injectivity and consistency preservation empirically;
//   - the gadget reductions used for the base sets: vertex cover →
//     ∆A↔B→C updates (Theorem 4.10), vertex cover → {A→B, B→C} subsets
//     (a verified substitution for the unspecified MAX-2-SAT reduction
//     of Gribkoff et al.), MAX-non-mixed-SAT → ∆AB→C→B
//     (Lemma A.13), triangle packing → ∆AB↔AC↔BC (Lemma A.11), and the
//     ∆k / ∆′k liftings of Lemmas B.6 and B.7.
package reduction

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/table"
)

// SourceABC is the source schema R(A, B, C) of the fact-wise reductions.
var SourceABC = schema.MustNew("R", "A", "B", "C")

// bullet is the constant ⊙ used by the reductions.
const bullet = "⊙"

// pair encodes the composite value ⟨parts...⟩ injectively
// (length-prefixed concatenation).
func pair(parts ...table.Value) table.Value {
	var b strings.Builder
	b.WriteString("⟨")
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte(':')
		b.WriteString(p)
	}
	b.WriteString("⟩")
	return b.String()
}

// FactWise is a tuple mapping Π from (SourceABC, base FD set) to a
// target schema and FD set. Map must be injective and preserve pairwise
// consistency; the tests check both.
type FactWise struct {
	// Name identifies the lemma that defines the mapping.
	Name string
	// Base is the hard FD set over SourceABC being reduced from.
	Base *fd.Set
	// Target is the FD set being reduced to.
	Target *fd.Set
	// Map maps a tuple (a, b, c) over SourceABC to a target tuple.
	Map func(t table.Tuple) table.Tuple
}

// MapTable applies Π tuple-wise, preserving ids and weights.
func (fw FactWise) MapTable(t *table.Table) (*table.Table, error) {
	if !t.Schema().SameAs(SourceABC) {
		return nil, fmt.Errorf("reduction: table is not over %s", SourceABC)
	}
	out := table.New(fw.Target.Schema())
	for _, r := range t.Rows() {
		if err := out.Insert(r.ID, fw.Map(r.Tuple), r.Weight); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ForClassification builds the fact-wise reduction of the lemma
// matching the classification of a non-simplifiable FD set (Lemmas
// A.14–A.17). The target set must be the set that produced the
// classification.
func ForClassification(target *fd.Set, cl fd.Classification) (FactWise, error) {
	can := target.Canonical()
	x1, x2 := cl.X1, cl.X2
	cl1 := can.Closure(x1)
	cl2 := can.Closure(x2)
	h1 := cl1.Diff(x1)
	h2 := cl2.Diff(x2)
	k := target.Schema().Arity()

	mapWith := func(cases func(attr int, a, b, c table.Value) table.Value) func(table.Tuple) table.Tuple {
		return func(t table.Tuple) table.Tuple {
			a, b, c := t[0], t[1], t[2]
			out := make(table.Tuple, k)
			for i := 0; i < k; i++ {
				out[i] = cases(i, a, b, c)
			}
			return out
		}
	}

	switch cl.Class {
	case fd.Class1:
		// Lemma A.14, base ∆A→C←B = {A → C, B → C}.
		base := fd.MustParseSet(SourceABC, "A -> C", "B -> C")
		return FactWise{
			Name:   "Lemma A.14 (class 1)",
			Base:   base,
			Target: target,
			Map: mapWith(func(i int, a, b, c table.Value) table.Value {
				switch {
				case x1.Contains(i) && x2.Contains(i):
					return bullet
				case x1.Contains(i):
					return a
				case x2.Contains(i):
					return b
				case h1.Contains(i):
					return pair(a, c)
				case h2.Contains(i):
					return pair(b, c)
				default:
					return pair(a, b)
				}
			}),
		}, nil
	case fd.Class2, fd.Class3:
		// Lemma A.15, base ∆A→B→C = {A → B, B → C}.
		base := fd.MustParseSet(SourceABC, "A -> B", "B -> C")
		return FactWise{
			Name:   fmt.Sprintf("Lemma A.15 (%v)", cl.Class),
			Base:   base,
			Target: target,
			Map: mapWith(func(i int, a, b, c table.Value) table.Value {
				switch {
				case x1.Contains(i) && x2.Contains(i):
					return bullet
				case x1.Contains(i):
					return a
				case x2.Contains(i):
					return b
				case h1.Contains(i) && !cl2.Contains(i):
					return pair(a, c)
				case h2.Contains(i):
					return pair(b, c)
				default:
					return a
				}
			}),
		}, nil
	case fd.Class4:
		// Lemma A.16, base ∆AB↔AC↔BC = {AB → C, AC → B, BC → A}.
		base := fd.MustParseSet(SourceABC, "A B -> C", "A C -> B", "B C -> A")
		x3 := cl.X3
		return FactWise{
			Name:   "Lemma A.16 (class 4)",
			Base:   base,
			Target: target,
			Map: mapWith(func(i int, a, b, c table.Value) table.Value {
				in1, in2, in3 := x1.Contains(i), x2.Contains(i), x3.Contains(i)
				switch {
				case in1 && in2 && in3:
					return bullet
				case in1 && in2:
					return a
				case in1 && in3:
					return b
				case in2 && in3:
					return c
				case in1:
					return pair(a, b)
				case in2:
					return pair(a, c)
				case in3:
					return pair(b, c)
				default:
					return pair(a, b, c)
				}
			}),
		}, nil
	case fd.Class5:
		// Lemma A.17, base ∆AB→C→B = {AB → C, C → B}.
		base := fd.MustParseSet(SourceABC, "A B -> C", "C -> B")
		return FactWise{
			Name:   "Lemma A.17 (class 5)",
			Base:   base,
			Target: target,
			Map: mapWith(func(i int, a, b, c table.Value) table.Value {
				in1, in2, inH1 := x1.Contains(i), x2.Contains(i), h1.Contains(i)
				switch {
				case in1 && in2:
					return bullet
				case in1:
					return c
				case in2 && inH1:
					return b
				case in2:
					return pair(a, b)
				case inH1:
					return pair(b, c)
				default:
					return pair(a, b, c)
				}
			}),
		}, nil
	default:
		return FactWise{}, fmt.Errorf("reduction: no fact-wise reduction for %v", cl.Class)
	}
}

// AttributeRemoval is Lemma A.18: the fact-wise reduction from
// (R, Δ − X) to (R, Δ) that pads the removed attributes with ⊙. It maps
// tuples of R to tuples of R (same schema).
func AttributeRemoval(target *fd.Set, x schema.AttrSet) func(table.Tuple) table.Tuple {
	return func(t table.Tuple) table.Tuple {
		out := t.Clone()
		for _, p := range x.Positions() {
			out[p] = bullet
		}
		return out
	}
}
