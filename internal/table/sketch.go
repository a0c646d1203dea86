package table

// Cardinality sketches for streaming ingestion. The chunked builder
// feeds every row's projection keys through one CardSketch per tracked
// attribute set (attribute pairs and the full tuple; single attributes
// are exact from the interning dictionaries), so an ingested table can
// answer "how many distinct projections will this group-by produce?"
// before any projection is materialized. The estimates drive scratch
// pre-sizing only — solve.Hints / solve.Ctx.ProjectionCard — never
// correctness: an off-by-some estimate costs one slice growth, not a
// wrong repair.

import (
	"math"
	"math/bits"

	"repro/internal/schema"
	"repro/internal/solve"
)

const (
	// sketchExactMax is the distinct-key count up to which a sketch
	// stays exact (a small hash set). Most attribute pairs of real
	// tables land here and report exact counts.
	sketchExactMax = 4096
	// sketchP is the HLL precision: 2^sketchP registers once a sketch
	// overflows the exact stage (4 KiB per overflowed sketch).
	sketchP = 12
	// sketchMaxArity bounds the attribute count for which pair sketches
	// are built: C(k,2)+1 sketches per table stays small for k ≤ 8.
	sketchMaxArity = 8
)

// CardSketch estimates the number of distinct 64-bit keys offered to
// Add. It is exact (a small set of the hashed keys) up to
// sketchExactMax distinct keys and degrades to an HLL-style register
// estimator beyond that, so tracking a 10M-distinct column costs 4 KiB,
// not a 10M-entry map. Add must be called with well-mixed hashes
// (mix64); the zero value is not ready — use newCardSketch.
//
// Not safe for concurrent use while being built; read-only Estimate
// calls after building are safe to share.
type CardSketch struct {
	exact map[uint64]struct{}
	regs  []uint8
}

func newCardSketch() *CardSketch {
	return &CardSketch{exact: make(map[uint64]struct{}, 64)}
}

// Add offers one hashed key to the sketch.
func (s *CardSketch) Add(h uint64) {
	if s.regs == nil {
		if _, ok := s.exact[h]; ok {
			return
		}
		if len(s.exact) < sketchExactMax {
			s.exact[h] = struct{}{}
			return
		}
		// Overflow: fold the exact stage into registers and continue
		// as an HLL estimator.
		s.regs = make([]uint8, 1<<sketchP)
		for k := range s.exact {
			s.addReg(k)
		}
		s.exact = nil
	}
	s.addReg(h)
}

func (s *CardSketch) addReg(h uint64) {
	idx := h >> (64 - sketchP)
	// Rank of the first set bit in the remaining stream, 1-based and
	// capped so it fits a register.
	rho := uint8(bits.LeadingZeros64(h<<sketchP|1<<(sketchP-1))) + 1
	if rho > s.regs[idx] {
		s.regs[idx] = rho
	}
}

// Estimate returns the estimated distinct-key count: exact while the
// sketch has not overflowed, the standard HLL estimate (with
// linear-counting correction for the sparse range) afterwards.
func (s *CardSketch) Estimate() int {
	if s.regs == nil {
		return len(s.exact)
	}
	m := float64(len(s.regs))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	// alpha_m for m = 4096.
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return int(est + 0.5)
}

// Exact reports whether Estimate is an exact count (the sketch never
// overflowed its exact stage).
func (s *CardSketch) Exact() bool { return s.regs == nil }

// mix64 is a splitmix64 finalizer: a cheap, deterministic 64-bit mixer
// turning structured projection keys (packed dictionary codes) into
// uniformly distributed hashes for the sketches.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// tableSketches is the per-table sketch set an ingestion attaches: one
// CardSketch per tracked multi-attribute set. Immutable once attached.
type tableSketches struct {
	bySet map[schema.AttrSet]*CardSketch
}

// SketchCardinality returns the sketch estimate of the distinct count
// of the projection onto attrs, when the table carries an ingestion
// sketch for exactly that attribute set. Estimates are for scratch
// pre-sizing; they are exact below the sketch's overflow threshold and
// within a few percent beyond it.
func (t *Table) SketchCardinality(attrs schema.AttrSet) (card int, ok bool) {
	sk := t.sk.Load()
	if sk == nil {
		return 0, false
	}
	s, ok := sk.bySet[attrs]
	if !ok {
		return 0, false
	}
	return s.Estimate(), true
}

// SolveHints sizes a whole-table solve's scratch from the table's
// shape: its row count; its distinct-count estimate, refined on an
// ingested table by the full-tuple cardinality sketch (per-column
// maxima undercount multi-attribute projections) and clamped to the
// row count (the dictionary of an incrementally mutated table retains
// vanished values, so the raw estimate can exceed any projection's
// live distinct count); and its sketch set as the per-projection
// cardinality source, so arena preheating sizes from measured distinct
// counts instead of the upper-bound guess.
func (t *Table) SolveHints() solve.Hints {
	codes := t.DistinctEstimate()
	if full, ok := t.SketchCardinality(t.Schema().AllAttrs()); ok && full > codes {
		codes = full
	}
	return solve.Hints{Rows: t.Len(), Codes: min(codes, t.Len()), Cards: t.CardSource()}
}

// CardSource returns a per-projection cardinality source for
// solve.Hints, or nil when the table carries no ingestion sketches.
// Resolution order per queried attribute set: the live encoding's
// exact dictionary/projection counts (ProjectionCardinality), then the
// ingestion sketch for that exact set, then the saturating product of
// the single-attribute dictionary sizes (a hard upper bound on any
// projection). Estimates feed capacity pre-sizing only, and
// solve.Ctx.ProjectionCard additionally clamps every answer to the
// scope's row count.
func (t *Table) CardSource() func(schema.AttrSet) (int, bool) {
	if t.sk.Load() == nil {
		return nil
	}
	return func(attrs schema.AttrSet) (int, bool) {
		if card, ok := t.ProjectionCardinality(attrs); ok {
			return card, true
		}
		if card, ok := t.SketchCardinality(attrs); ok {
			return card, true
		}
		// Product of single-attribute cardinalities: an upper bound on
		// the projection's distinct count, saturating well past any
		// useful pre-size (the caller clamps to the row count).
		e := t.enc.Load()
		if e == nil {
			return 0, false
		}
		prod := 1
		for _, a := range attrs.Positions() {
			if e.cols[a] == nil {
				return 0, false
			}
			if prod *= e.card[a]; prod > 1<<31 || prod < 0 {
				return 1 << 31, true
			}
		}
		return prod, true
	}
}
