// Package solve is a miniature of the real repro/internal/solve: just
// enough surface (Ctx, Stats) for the fdlint fixtures to typecheck at
// the real import path.
package solve

import "sync/atomic"

type Ctx struct{ stats Stats }

func (c *Ctx) Err() error                                         { return nil }
func (c *Ctx) Workers() int                                       { return 1 }
func (c *Ctx) Stats() *Stats                                      { return &c.stats }
func (c *Ctx) Scoped() *Ctx                                       { return c }
func (c *Ctx) ForEachBlock(n int, fn func(*Ctx, int) error) error { return nil }

func (c *Ctx) GetScratch(key any) any      { return nil }
func (c *Ctx) PutScratch(key, v any)       {}
func (c *Ctx) Int32s(n int) []int32        { return make([]int32, n) }
func (c *Ctx) PutInt32s(s []int32)         {}
func (c *Ctx) Int32Slices(n int) [][]int32 { return make([][]int32, n) }
func (c *Ctx) PutInt32Slices(s [][]int32)  {}
func (c *Ctx) Float64s(n int) []float64    { return make([]float64, n) }
func (c *Ctx) PutFloat64s(s []float64)     {}

// Stats mirrors the real all-atomic counter sink.
type Stats struct {
	Nodes  atomic.Int64
	Steals atomic.Int64
}

func (s *Stats) Node()              {}
func (s *Stats) Snapshot() Snapshot { return Snapshot{} }
func (s *Stats) Reset()             {}

type Snapshot struct{ Nodes, Steals int64 }
