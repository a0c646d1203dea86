package fdrepair

import (
	"fmt"
	"slices"

	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/srepair"
	"repro/internal/table"
)

// Session is a resident repair handle binding one Solver, one table and
// one FD set for a long-running mutate/repair loop. It keeps the
// table's dictionary-encoding snapshot, the FD set's cached
// simplification chain, the top-level block partition and every block's
// previous repair result alive across solves, so Repair after a small
// mutation does incremental work:
//
//   - AppendRows and SetCells route through the table's incremental
//     mutators — new values are interned into the live dictionaries,
//     old columns are never re-encoded — and record which rows went
//     dirty;
//   - Repair re-partitions nothing (the block grouping is maintained by
//     the encoder), classifies each block as clean or dirty, re-solves
//     only the dirty ones as tasks on the solver's work-stealing
//     scheduler under a fresh per-request solve scope, and splices the
//     cached repairs of clean blocks into the combine step.
//
// The output is byte-identical to a from-scratch solve of the current
// table at every step. When more than 30% of the rows are dirty, the
// FD set changes (SetFDs), or no previous solve exists, Repair runs all
// blocks — still seeding the block cache for the next round.
//
// A Session is a single-client handle: its methods must not be called
// concurrently (the underlying Solver remains safe for concurrent use
// by other sessions and one-shot solves). The session owns its table —
// callers must not mutate it behind the session's back.
type Session struct {
	sv *Solver
	ds *FDSet
	t  *Table

	bs        *srepair.BlockSolver // cached simplification chain (nil when not tractable)
	partAttrs schema.AttrSet       // projection defining the top-level blocks
	blocked   bool                 // false: trivial set, no block structure
	tractable bool                 // false: hard side of the dichotomy

	cleanN int    // rows [0, cleanN) existed at the last solve
	dirty  []bool // len cleanN; true = mutated since the last solve
	ndirty int    // count of set entries in dirty

	// Dirty bookkeeping for O(dirty + blocks) classification: the rows
	// marked dirty since the last solve, the partition codes they
	// carried when touched (a recoded row's former block is dirty too —
	// it lost a member), and the code-indexed dirty bitmap scratch.
	dirtyList []int32
	oldCodes  []int32
	codeDirty []bool

	// cache holds each block's last solved repair, indexed by the
	// block's first (minimum) row index. Rows never move, so the index
	// survives appends, cell updates and the encoder's internal
	// projection rebuilds; a hit (n > 0, length matches, no member
	// dirty) is valid because non-dirty rows never change equality
	// class, so such a block is identical to the one solved. A dense
	// slice rather than a map: Repair classifies every block every
	// round, and tens of thousands of map probes per solve showed up in
	// profiles.
	cache  []blockResult
	primed bool // cache holds a previous solve's blocks

	// memo caches the marriage combine's matching per connected
	// component, so a repair after a small mutation re-matches only the
	// components whose block weights changed. Correct to drop at any
	// time; reset with the cache on SetFDs.
	memo *srepair.MatchMemo

	recordImpact bool

	stats      SessionStats
	lastImpact *Impact

	// Per-repair working buffers, recycled across Repair calls so a
	// steady mutate/repair loop does not re-allocate O(blocks) and
	// O(rows) scratch every round.
	repsBuf    [][]int32
	weightsBuf []float64
	solveBuf   []int
}

// blockResult is one cached block repair: the block length at solve
// time, the repair's row indices (ascending) and its total weight.
type blockResult struct {
	n   int
	rep []int32
	w   float64
}

// SessionStats describes the last Repair call and the session's
// cumulative solve accounting.
type SessionStats struct {
	Rows         int  // table length at the last Repair
	DirtyRows    int  // rows mutated or appended since the previous Repair
	Blocks       int  // blocks in the partition (0 for trivial sets)
	BlocksReused int  // clean blocks spliced from cache
	BlocksSolved int  // dirty blocks re-solved
	FullSolve    bool // the last Repair ran every block

	Repairs    int // cumulative Repair calls
	FullSolves int // cumulative Repairs that ran every block
}

// FDImpact is the violation count of one FD before and after a repair
// (tuples involved in at least one violation of that FD).
type FDImpact struct {
	FD            string
	Before, After int
}

// BlockImpact describes one block of the last repair: its first row
// index, size, how many rows the repair kept, the cells changed by
// deleting the rest (deleted rows × arity — an S-repair changes cells
// only by removing whole tuples), and whether the block repair was
// spliced from cache.
type BlockImpact struct {
	FirstRow     int
	Rows, Kept   int
	CellsChanged int
	Reused       bool
}

// Impact is the before/after report of one Repair call, recorded when
// the session was built WithImpactRecording. The fdrepair verify
// subcommand prints it.
type Impact struct {
	Violations []FDImpact
	Blocks     []BlockImpact
	Cost       float64
}

// SessionOption configures a Session under construction.
type SessionOption func(*Session)

// WithImpactRecording makes every Repair record an Impact report
// (per-FD violation counts before and after, per-block rows kept and
// cells changed), retrievable with LastImpact. Off by default: the
// after-side violation counts cost one encoding pass over the repaired
// table.
func WithImpactRecording() SessionOption {
	return func(s *Session) { s.recordImpact = true }
}

// NewSession builds a resident session over the solver, FD set and
// table. The table is owned by the session afterwards: all further
// mutation must go through Session.AppendRows / Session.SetCells.
func NewSession(sv *Solver, ds *FDSet, t *Table, opts ...SessionOption) (*Session, error) {
	if sv == nil {
		return nil, fmt.Errorf("fdrepair: nil solver")
	}
	if !ds.Schema().SameAs(t.Schema()) {
		return nil, fmt.Errorf("fdrepair: FD set and table have different schemas")
	}
	s := &Session{sv: sv, ds: ds, t: t}
	for _, opt := range opts {
		opt(s)
	}
	s.bindFDs(ds)
	return s, nil
}

// bindFDs recomputes the chain-derived session state for a (new) FD
// set and drops every cached block repair.
func (s *Session) bindFDs(ds *FDSet) {
	s.ds = ds
	s.bs, s.tractable = srepair.NewBlockSolver(ds)
	if s.tractable {
		s.partAttrs, s.blocked = s.bs.TopStepAttrs()
	} else {
		s.partAttrs, s.blocked = 0, false
	}
	s.memo = srepair.NewMatchMemo()
	clear(s.cache)
	s.primed = false
	s.cleanN, s.ndirty = 0, 0
	s.dirty = s.dirty[:0]
	s.dirtyList = s.dirtyList[:0]
	s.oldCodes = s.oldCodes[:0]
}

// Table returns the session's live table. Read-only for callers:
// mutate through AppendRows / SetCells.
func (s *Session) Table() *Table { return s.t }

// FDs returns the session's current FD set.
func (s *Session) FDs() *FDSet { return s.ds }

// Stats returns the session's solve accounting (last Repair plus
// cumulative counters).
func (s *Session) Stats() SessionStats { return s.stats }

// LastImpact returns the impact report of the most recent Repair, or
// nil when none was recorded (impact recording off, or no Repair yet).
func (s *Session) LastImpact() *Impact { return s.lastImpact }

// AppendRows bulk-appends rows to the session's table (semantics of
// Table.AppendRows: consecutive fresh identifiers, nil weights mean 1,
// all-or-nothing validation) through the incremental encoder — only
// the new rows are interned. The new rows are dirty until the next
// Repair.
func (s *Session) AppendRows(tuples []Tuple, weights []float64) (int, error) {
	return s.t.AppendRowsIncremental(tuples, weights)
}

// SetCells applies cell updates to the session's table in place
// (later updates to the same cell win; all-or-nothing validation)
// through the incremental encoder, and marks the touched rows dirty.
func (s *Session) SetCells(updates []CellUpdate) error {
	// Capture the touched rows' partition codes before the recode: the
	// block a row leaves is as dirty as the one it joins, and after the
	// mutation the old label is gone. Invalid updates are filtered by
	// the mutator below; the capture is rolled back on error.
	mark := len(s.oldCodes)
	if s.blocked {
		codes, _ := s.t.ProjectionCodes(s.partAttrs)
		for _, u := range updates {
			if ri, ok := s.t.IndexOf(u.ID); ok && ri < len(codes) {
				s.oldCodes = append(s.oldCodes, codes[ri])
			}
		}
	}
	if err := s.t.SetCellsIncremental(updates); err != nil {
		s.oldCodes = s.oldCodes[:mark]
		return err
	}
	for _, u := range updates {
		ri, _ := s.t.IndexOf(u.ID)
		if ri < s.cleanN && !s.dirty[ri] {
			s.dirty[ri] = true
			s.dirtyList = append(s.dirtyList, int32(ri))
			s.ndirty++
		}
	}
	return nil
}

// SetFDs replaces the session's FD set. A set equal to the current one
// (same FD sequence over the same schema) is a no-op; otherwise the
// block partition derives from the new set's simplification chain, so
// every cached block repair is dropped and the next Repair runs full.
func (s *Session) SetFDs(ds *FDSet) error {
	if !ds.Schema().SameAs(s.t.Schema()) {
		return fmt.Errorf("fdrepair: FD set and table have different schemas")
	}
	if ds.EqualTo(s.ds) {
		s.ds = ds
		return nil
	}
	s.bindFDs(ds)
	return nil
}

// dirtyFallbackFrac is the dirty-row fraction above which Repair
// abandons incremental splicing and re-solves every block (cache
// classification overhead is wasted when most blocks changed anyway).
const dirtyFallbackFrac = 0.3

// Repair computes an optimal S-repair of the session's current table
// and its dist_sub cost, byte-identical to
// Solver.OptimalSRepair(FDs(), Table()) — but re-solving only the
// blocks whose rows were appended or updated since the last Repair,
// splicing cached repairs for the rest. Returns ErrNoSimplification
// when the FD set is on the hard side of the dichotomy. On success the
// session's dirty set resets and the block cache is refreshed; on
// error (cancellation included) the session state is unchanged and
// Repair may be retried.
func (s *Session) Repair() (*Table, float64, error) {
	if err := s.sv.begin(); err != nil {
		return nil, 0, err
	}
	defer s.sv.end()
	if !s.tractable {
		return nil, 0, srepair.ErrNoSimplification
	}
	n := s.t.Len()
	dirtyRows := s.ndirty + (n - s.cleanN)
	if !s.blocked {
		// Trivial FD set: the table is its own optimal S-repair (what the
		// cold entry point returns before any block machinery).
		s.commit(0, dirtyRows, false)
		if s.recordImpact {
			vi := s.fdImpacts(s.t)
			for i := range vi {
				vi[i].After = vi[i].Before // trivial sets repair to the table itself
			}
			s.lastImpact = &Impact{Violations: vi}
		}
		return s.t, 0, nil
	}
	var before []FDImpact
	if s.recordImpact {
		before = s.fdImpacts(nil)
	}
	if n == 0 {
		s.commit(0, dirtyRows, false)
		rep := table.ViewOfRows(s.t, nil).Materialize()
		if s.recordImpact {
			s.lastImpact = &Impact{Violations: before, Cost: 0}
		}
		return rep, 0, nil
	}

	// One Repair = one solve scope, so a failpoint poisoning this solve
	// cannot outlive it.
	c := s.sv.ctx.Scoped(nil, nil)

	groups := s.t.RowGroups(s.partAttrs)
	full := dirtyRows > int(dirtyFallbackFrac*float64(n)) || !s.primed
	if len(s.cache) < n {
		if cap(s.cache) >= n {
			// Capacity beyond len is zeroed (blockResult holds a pointer,
			// so the allocation was cleared through its full capacity).
			s.cache = s.cache[:n]
		} else {
			// Headroom for a steady append workload: exact growth would
			// reallocate the whole O(rows) cache every round.
			nc := make([]blockResult, n, n+n/8)
			copy(nc, s.cache)
			s.cache = nc
		}
	}

	// Classify blocks; collect the indices to solve.
	if cap(s.repsBuf) < len(groups) {
		// Headroom: workloads that keep minting new blocks (fresh values,
		// appends) grow the partition a little every round, and exact
		// sizing would reallocate all three buffers each time.
		g := len(groups) + len(groups)/8
		s.repsBuf = make([][]int32, g)
		s.weightsBuf = make([]float64, g)
		s.solveBuf = make([]int, 0, g)
	}
	reps := s.repsBuf[:len(groups)]
	weights := s.weightsBuf[:len(groups)]
	solveIdx := s.solveBuf[:0]
	reused := 0
	if full {
		solveIdx = slices.Grow(solveIdx, len(groups))
		for gi := range groups {
			solveIdx = append(solveIdx, gi)
		}
	} else {
		// A block is dirty exactly when a dirty row lives in it now or
		// lived in it at the last solve; both directions are visible in
		// the partition codes of the dirty rows (current, plus the codes
		// captured before each recode), so classification costs
		// O(dirty + blocks), not a membership walk over every row.
		codes, bound := s.t.ProjectionCodes(s.partAttrs)
		if cap(s.codeDirty) < bound {
			s.codeDirty = make([]bool, bound+bound/8)
		}
		cd := s.codeDirty[:bound]
		clear(cd)
		for _, c := range s.oldCodes {
			if int(c) < bound {
				cd[c] = true
			}
		}
		for _, ri := range s.dirtyList {
			cd[codes[ri]] = true
		}
		for ri := s.cleanN; ri < n; ri++ {
			cd[codes[ri]] = true
		}
		for gi, g := range groups {
			if !cd[codes[g[0]]] {
				if cached := &s.cache[g[0]]; cached.n == len(g) {
					reps[gi], weights[gi] = cached.rep, cached.w
					reused++
					continue
				}
			}
			solveIdx = append(solveIdx, gi)
		}
	}

	// Solve the dirty blocks as tasks on the shared scheduler; each
	// block runs the same depth-1 recursion a cold solve's root fan-out
	// performs.
	err := c.ForEachBlock(len(solveIdx),
		func(i int) int { return len(groups[solveIdx[i]]) },
		func(wc *solve.Ctx, i int) error {
			gi := solveIdx[i]
			rep, err := s.bs.SolveBlock(wc, s.t, groups[gi])
			if err != nil {
				return err
			}
			reps[gi] = rep
			weights[gi] = srepair.BlockWeight(s.t, rep)
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	keep, err := s.bs.Combine(c, s.t, groups, reps, weights, s.memo)
	if err != nil {
		return nil, 0, err
	}
	rep := table.ViewOfRows(s.t, keep).Materialize()
	cost := s.costOf(keep)

	// Refresh the cache for the blocks actually solved; reused blocks'
	// entries are unchanged by definition of the classification.
	for _, gi := range solveIdx {
		g := groups[gi]
		s.cache[g[0]] = blockResult{n: len(g), rep: reps[gi], w: weights[gi]}
	}
	s.primed = true
	s.commit(len(groups), dirtyRows, len(solveIdx) == len(groups))
	s.stats.BlocksReused = reused
	s.stats.BlocksSolved = len(solveIdx)
	if s.recordImpact {
		s.recordBlockImpact(before, groups, reps, solveIdx, rep, cost)
	}
	return rep, cost, nil
}

// costOf is dist_sub(rep, t) over the keep set: the same iteration
// order and float additions as table.DistSub, without re-verifying the
// subset relation row by row. keep is ascending (a Combine result), so
// one merge walk finds the deleted rows.
func (s *Session) costOf(keep []int32) float64 {
	var sum float64
	k := 0
	for ri, r := range s.t.Rows() {
		if k < len(keep) && int(keep[k]) == ri {
			k++
			continue
		}
		sum += r.Weight
	}
	return sum
}

// commit resets the dirty set and refreshes the stats; called only on
// success (after the caller updated the block cache), so a failed
// Repair leaves the session retryable.
func (s *Session) commit(blocks, dirtyRows int, full bool) {
	n := s.t.Len()
	s.cleanN = n
	s.ndirty = 0
	s.dirtyList = s.dirtyList[:0]
	s.oldCodes = s.oldCodes[:0]
	if cap(s.dirty) < n {
		s.dirty = make([]bool, n)
	} else {
		s.dirty = s.dirty[:n]
		clear(s.dirty)
	}
	s.stats = SessionStats{
		Rows:       n,
		DirtyRows:  dirtyRows,
		Blocks:     blocks,
		FullSolve:  full,
		Repairs:    s.stats.Repairs + 1,
		FullSolves: s.stats.FullSolves,
	}
	if full {
		s.stats.FullSolves++
	}
}

// fdImpacts counts, per FD, the tuples involved in at least one
// violation. A nil argument means the session's table.
func (s *Session) fdImpacts(t *Table) []FDImpact {
	if t == nil {
		t = s.t
	}
	out := make([]FDImpact, s.ds.Len())
	for i := 0; i < s.ds.Len(); i++ {
		f := s.ds.FDAt(i)
		out[i] = FDImpact{FD: s.ds.FDString(f), Before: t.FDViolationTuples(f)}
	}
	return out
}

// recordBlockImpact fills LastImpact from this solve's bookkeeping.
func (s *Session) recordBlockImpact(before []FDImpact, groups, reps [][]int32, solveIdx []int, rep *Table, cost float64) {
	solved := make(map[int]bool, len(solveIdx))
	for _, gi := range solveIdx {
		solved[gi] = true
	}
	arity := s.t.Schema().Arity()
	im := &Impact{Violations: before, Cost: cost}
	// Kept rows per block: every kept row lies in exactly one block of
	// the partition, and Combine either keeps a block's repair verbatim
	// or drops the block entirely, so membership of the first repair row
	// decides the whole block.
	keptIn := make([]bool, s.t.Len())
	for _, r := range rep.Rows() {
		ri, _ := s.t.IndexOf(r.ID)
		keptIn[ri] = true
	}
	for gi, g := range groups {
		kept := 0
		if len(reps[gi]) > 0 && keptIn[reps[gi][0]] {
			kept = len(reps[gi])
		}
		im.Blocks = append(im.Blocks, BlockImpact{
			FirstRow:     int(g[0]),
			Rows:         len(g),
			Kept:         kept,
			CellsChanged: (len(g) - kept) * arity,
			Reused:       !solved[gi],
		})
	}
	for i := range im.Violations {
		im.Violations[i].After = rep.FDViolationTuples(s.ds.FDAt(i))
	}
	s.lastImpact = im
}
