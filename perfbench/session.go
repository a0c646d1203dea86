package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/fdrepair"
	"repro/internal/table"
)

// session is session-updates: one caller, one parallel Solver and a
// resident fdrepair.Session per table shape. Each op is one mutation
// batch (alternately: append 1% of rows copied from existing rows, or
// set 0.1% of cells to fresh values) followed by Session.Repair. After
// cfg.sz.sessionOps ops the session is rebuilt from the pristine table
// (untimed), so the table stays near its named size. Each shape has
// cfg.sz.sessionLife lifetimes of precomputed batches, and a cycle runs
// every lifetime of every shape once.
type session struct {
	cfg config
	sv  *fdrepair.Solver
	in  []sessInput

	sess *fdrepair.Session // live session of the current lifetime
}

type sessInput struct {
	shape
	base  *fdrepair.Table
	ds    *fdrepair.FDSet
	lives []lifetime
}

// lifetime is one session's batches and the reference after each,
// from a cold serial solve of the mutated table.
type lifetime struct {
	steps []mutation
	refs  []outRef
}

// mutation is one op's batch: rows to append or cells to set.
type mutation struct {
	tuples  []fdrepair.Tuple
	weights []float64
	cells   []fdrepair.CellUpdate
}

func setupSession(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &session{cfg: cfg, sv: fdrepair.NewSolver(fdrepair.WithParallelism(runtime.NumCPU()), fdrepair.WithStats())}
	serial := fdrepair.NewSolver()
	fresh := 0
	for _, sh := range sessionShapes {
		base, err := table.IngestCSV(bytes.NewReader(sh.gen(cfg.sz.sessionRows, rng)), "T")
		if err != nil {
			return nil, err
		}
		ds, err := fdrepair.ParseFDs(base.Schema(), sh.fds...)
		if err != nil {
			return nil, err
		}
		in := sessInput{shape: sh, base: base, ds: ds}
		for range cfg.sz.sessionLife {
			var life lifetime
			work := base.Clone()
			for step := 0; step < cfg.sz.sessionOps; step++ {
				m := nextMutation(work, step, rng, &fresh)
				if _, err := work.AppendRows(cloneTuples(m.tuples), m.weights); err != nil {
					return nil, err
				}
				for _, u := range m.cells {
					work.SetCellInPlace(u.ID, u.Attr, u.Val)
				}
				rep, cost, err := serial.OptimalSRepair(ds, work)
				if err != nil {
					return nil, fmt.Errorf("%s reference step %d: %w", sh.name, step, err)
				}
				if !rep.Satisfies(ds) {
					return nil, fmt.Errorf("%s reference step %d violates its FDs", sh.name, step)
				}
				life.steps = append(life.steps, m)
				life.refs = append(life.refs, outRef{crc32.ChecksumIEEE(tableBytes(rep)), cost})
			}
			in.lives = append(in.lives, life)
		}
		s.in = append(s.in, in)
	}
	// Warm-up: one cycle.
	lr := &loopResult{kinds: 2 * len(s.in), raw: map[string]int64{}}
	for i := 0; i < s.cycle(); i++ {
		if err := s.op(lr, i, nil); err != nil {
			return nil, err
		}
	}
	if lr.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d wrong outputs", lr.failed())
	}
	return s, nil
}

// nextMutation draws step's batch from the current table: even steps
// append 1% of rows copied from random existing rows, odd steps set
// 0.1% of cells to values the table has never held.
func nextMutation(t *fdrepair.Table, step int, rng *rand.Rand, fresh *int) mutation {
	rows := t.Rows()
	var m mutation
	if step%2 == 0 {
		k := max(len(rows)/100, 1)
		for range k {
			src := rows[rng.Intn(len(rows))]
			m.tuples = append(m.tuples, slices.Clone(src.Tuple))
			m.weights = append(m.weights, src.Weight)
		}
		return m
	}
	arity := t.Schema().Arity()
	k := max(len(rows)*arity/1000, 1)
	for range k {
		*fresh++
		m.cells = append(m.cells, fdrepair.CellUpdate{
			ID:   rows[rng.Intn(len(rows))].ID,
			Attr: rng.Intn(arity),
			Val:  "fix-" + strconv.Itoa(*fresh),
		})
	}
	return m
}

func cloneTuples(ts []fdrepair.Tuple) []fdrepair.Tuple {
	out := make([]fdrepair.Tuple, len(ts))
	for i, t := range ts {
		out[i] = slices.Clone(t)
	}
	return out
}

// cycle is the number of ops that run every lifetime of every shape.
func (s *session) cycle() int { return len(s.in) * s.cfg.sz.sessionLife * s.cfg.sz.sessionOps }

// op runs op number i: shape, lifetime and step in that order of
// significance within the cycle. A lifetime's first op rebuilds the
// session (untimed).
func (s *session) op(lr *loopResult, i int, tr *tracer) error {
	n := s.cfg.sz.sessionOps
	life := i / n
	k, step := (life/s.cfg.sz.sessionLife)%len(s.in), i%n
	in := &s.in[k]
	lt := &in.lives[life%s.cfg.sz.sessionLife]
	if step == 0 {
		sess, err := fdrepair.NewSession(s.sv, in.ds, in.base.Clone())
		if err != nil {
			return err
		}
		if _, _, err := sess.Repair(); err != nil {
			return fmt.Errorf("priming %s session: %w", in.name, err)
		}
		s.sess = sess
	}
	m := lt.steps[step]
	tuples := cloneTuples(m.tuples) // the session keeps the rows it is given
	var rep *fdrepair.Table
	var cost float64
	var err error
	id := int64(i)
	lr.timed(2*k+step%2, s.sv, func() bool {
		root := tr.begin(id, "op", -1)
		defer tr.end(root, 0, 0)
		sp := tr.begin(id, "table.mutate", root)
		if m.cells != nil {
			err = s.sess.SetCells(m.cells)
		} else {
			_, err = s.sess.AppendRows(tuples, m.weights)
		}
		tr.end(sp, int64(len(tuples)+len(m.cells)), 0)
		if err != nil {
			return false
		}
		sp = tr.begin(id, "session.repair", root)
		rep, cost, err = s.sess.Repair()
		tr.end(sp, int64(s.sess.Table().Len()), 0)
		return err == nil
	})
	if err != nil {
		return nil // counted as a failed op
	}
	st := s.sess.Stats()
	lr.raw["session.blocks"] += int64(st.Blocks)
	lr.raw["session.blocks_reused"] += int64(st.BlocksReused)
	lr.raw["session.blocks_solved"] += int64(st.BlocksSolved)
	lr.raw["session.repairs"]++
	if st.FullSolve {
		lr.raw["session.full_solves"]++
	}
	ref := lt.refs[step]
	last := &lr.ops[len(lr.ops)-1]
	last.ok = s.cfg.digest(tableBytes(rep)) == ref.digest && cost == ref.cost
	return nil
}

func (s *session) loop(d time.Duration, tr *tracer) (*loopResult, error) {
	lr := &loopResult{kinds: 2 * len(s.in), raw: map[string]int64{}}
	rss := startRSS(0)
	defer rss.close()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d || i%s.cycle() != 0; i++ {
		rss.reset()
		if err := s.op(lr, i, tr); err != nil {
			return nil, err
		}
		lr.ops[len(lr.ops)-1].rssMB = rss.reset()
	}
	return lr, nil
}

func (s *session) env() map[string]any {
	return map[string]any{"solver_parallelism": s.sv.Parallelism(), "rows": s.cfg.sz.sessionRows}
}

func (s *session) close() error { return s.sv.Close(nil) }
