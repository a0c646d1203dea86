package solve

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/solve/failpoint"
)

// TestForEachBlockPanicIsolation: a block that panics — at any worker
// count, on the scheduled or the serial path — surfaces as that
// fan-out's *PanicError while sibling blocks run to completion and the
// scheduler survives for the next fan-out.
func TestForEachBlockPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		var stats Stats
		c := New(workers, nil, &stats)
		var ran atomic.Int64
		const n = 16
		err := c.ForEachBlock(n, big, func(c *Ctx, i int) error {
			if i == 5 {
				panic("poisoned block")
			}
			ran.Add(1)
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "poisoned block" {
			t.Fatalf("workers=%d: panic value %v", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panic_test.go") {
			t.Fatalf("workers=%d: stack does not include the panic site:\n%s", workers, pe.Stack)
		}
		// Serial semantics stop at the first failure (blocks before the
		// poisoned index); the scheduled path drains every sibling.
		want := int64(n - 1)
		if workers == 1 {
			want = 5
		}
		if got := ran.Load(); got != want {
			t.Fatalf("workers=%d: %d sibling blocks ran, want %d", workers, got, want)
		}
		if got := stats.Panics.Load(); got != 1 {
			t.Fatalf("workers=%d: Panics = %d, want 1", workers, got)
		}
		// The scheduler must be fully usable after the recovered panic.
		ran.Store(0)
		if err := c.ForEachBlock(n, big, func(c *Ctx, i int) error { ran.Add(1); return nil }); err != nil {
			t.Fatalf("workers=%d: fan-out after panic: %v", workers, err)
		}
		if ran.Load() != n {
			t.Fatalf("workers=%d: fan-out after panic ran %d blocks", workers, ran.Load())
		}
	}
}

// TestNestedPanicAtDepth: a task that panics below the root — depth > 1
// of a nested fan-out — is recovered by whichever worker executes it
// and propagates as an error through the enclosing joins, while every
// subtree not on the panicking path completes.
func TestNestedPanicAtDepth(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		c := New(workers, nil, nil)
		var leaves atomic.Int64
		err := c.ForEachBlock(4, big, func(c *Ctx, outer int) error {
			return c.ForEachBlock(4, big, func(c *Ctx, mid int) error {
				return c.ForEachBlock(4, big, func(c *Ctx, inner int) error {
					if outer == 2 && mid == 1 && inner == 3 {
						panic("depth-3 poison")
					}
					leaves.Add(1)
					return nil
				})
			})
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		// Scheduled joins drain all siblings before reporting, at every
		// level; the serial path stops at the poisoned leaf in DFS order
		// (outer 0–1 fully, then mid 0 and inner 0–2 of mid 1).
		want := int64(4*4*4 - 1)
		if workers == 1 {
			want = 2*16 + 4 + 3
		}
		if got := leaves.Load(); got != want {
			t.Fatalf("workers=%d: %d leaves ran, want %d", workers, got, want)
		}
	}
}

// TestFailpointCancelMidRecursion: the cancel-mid-recursion failpoint
// poisons only the scope it fires under; the fan-out reports
// context.Canceled and a fresh scope on the same Ctx is unaffected.
func TestFailpointCancelMidRecursion(t *testing.T) {
	defer failpoint.DisableAll()
	failpoint.Enable(failpoint.CancelMidRecursion, failpoint.Spec{After: 4, Count: 1})
	base := New(4, nil, nil)
	err := base.Scoped(nil, nil).ForEachBlock(64, big, func(c *Ctx, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	failpoint.DisableAll()
	if err := base.Scoped(nil, nil).ForEachBlock(8, big, func(c *Ctx, i int) error { return nil }); err != nil {
		t.Fatalf("fresh scope after poison: %v", err)
	}
}

// TestFailpointSlowBlock: slow-block stalls dispatches long enough for
// a short deadline to land mid-fan-out, and the fan-out reports the
// deadline instead of hanging.
func TestFailpointSlowBlock(t *testing.T) {
	defer failpoint.DisableAll()
	failpoint.Enable(failpoint.SlowBlock, failpoint.Spec{Sleep: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	c := New(2, ctx, nil)
	err := c.ForEachBlock(256, big, func(c *Ctx, i int) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if failpoint.Fires(failpoint.SlowBlock) == 0 {
		t.Fatal("slow-block never fired")
	}
}
