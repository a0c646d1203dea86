// Panic isolation and fault injection at the block-dispatch boundary.
//
// Every block body the engine runs — a scheduler task executed from a
// deque (stolen or not), an inline block on the producer's ForEachBlock
// path, or a block of the serial fallback — is dispatched through
// runBlock: failpoints fire first (so chaos suites and operators can
// inject panics, stalls, allocation spikes and mid-recursion
// cancellation at exactly this boundary), then the body runs under a
// recover that converts a panic into a *PanicError carrying the value
// and stack. The error lands in the block's own error slot like any
// other failure, so one poisoned table fails its own request while
// sibling blocks — and sibling requests interleaved on the same
// scheduler — complete untouched, and no worker goroutine ever dies.
package solve

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/solve/failpoint"
)

// PanicError is a panic recovered at a task or request boundary,
// carrying the panic value and the stack of the panicking goroutine.
// The scheduler converts task panics into PanicErrors; the fdrepair
// batch layer does the same for panics escaping a request body.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack),
	// captured before unwinding, so it includes the panic site.
	Stack []byte
}

// Error summarizes the panic; the stack is included because the only
// record of an isolated panic is the error that carries it.
func (e *PanicError) Error() string {
	return fmt.Sprintf("solve: recovered panic: %v\n%s", e.Value, e.Stack)
}

// NewPanicError captures the current stack for a value just recovered.
// Call it from inside the deferred recover so the stack still holds the
// panic site's frames.
func NewPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// runBlock dispatches one block body with fault isolation. All three
// dispatch paths (scheduler run, producer-inline, serial fallback) go
// through it, so panic recovery and failpoint evaluation behave
// identically wherever a block ends up executing.
func runBlock(c *Ctx, fn func(*Ctx, int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			c.Stats().Add(Panics, 1)
			err = NewPanicError(r)
		}
	}()
	if failpoint.Active() {
		c.evalFailpoints()
	}
	return fn(c, i)
}

// evalFailpoints runs the block-dispatch failpoints. PanicInBlock
// panics out of here into runBlock's recover; CancelMidRecursion
// poisons the current request's scope so the cancellation is observed
// at the next dispatch or recursion boundary, exactly like a deadline
// landing mid-solve.
func (c *Ctx) evalFailpoints() {
	failpoint.Eval(failpoint.SlowBlock)
	failpoint.Eval(failpoint.AllocSpike)
	if failpoint.Eval(failpoint.CancelMidRecursion) && c != nil {
		c.sc.fail(context.Canceled)
	}
	failpoint.Eval(failpoint.PanicInBlock)
}
