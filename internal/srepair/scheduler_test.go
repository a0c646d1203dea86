package srepair

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/schema"
	"repro/internal/solve"
	"repro/internal/solve/failpoint"
	"repro/internal/table"
	"repro/internal/workload"
)

// TestSchedulerDeterminism is the randomized-shape property test for
// the work-stealing scheduler: across every tractable FD set and
// random tables of varying size, domain (block granularity) and weight
// skew, the repair must be byte-identical for workers ∈ {1, 2, 4, 8}.
// Each worker count reuses one Ctx across all shapes, so arena
// recycling and worker shards are in play; under -race this is the
// scheduler's main data-race gate.
func TestSchedulerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1918))
	ctxs := map[int]*solve.Ctx{}
	for _, w := range []int{1, 2, 4, 8} {
		ctxs[w] = solve.New(w, nil, nil)
	}
	for name, ds := range workload.TractableSets() {
		sc := ds.Schema()
		for trial := 0; trial < 6; trial++ {
			n := 40 + rng.Intn(500)
			domain := 2 + rng.Intn(n/4+2) // few huge blocks .. many tiny ones
			tab := workload.RandomWeightedTable(sc, n, domain, 5, rng)
			serial, err := OptSRepairCtx(ctxs[1], ds, tab)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			for _, w := range []int{2, 4, 8} {
				got, err := OptSRepairCtx(ctxs[w], ds, tab)
				if err != nil {
					t.Fatalf("%s trial %d workers=%d: %v", name, trial, w, err)
				}
				sameRepair(t, fmt.Sprintf("%s/trial=%d/workers=%d", name, trial, w), tab, got, serial)
			}
		}
	}
}

// deepChainTable builds the regression shape the old try-acquire pool
// serialized: a chain of two common-lhs levels whose top level has only
// two (large) blocks, with the real fan-out — eight sub-blocks, each an
// lhs marriage over many components — buried beneath them. A pool
// worker acquired at the top used to park in the join while its
// subtree, finding the budget saturated, ran serially; the scheduler's
// steal/help protocol keeps every worker executing, which the steal
// counters below prove.
func deepChainTable(t *testing.T) (*fd.Set, *table.Table) {
	t.Helper()
	sc := schema.MustNew("R", "D1", "D2", "A", "B", "C")
	ds := fd.MustParseSet(sc, "D1 D2 A -> B", "D1 D2 B -> A", "D1 D2 B -> C")
	rng := rand.New(rand.NewSource(77))
	tab := table.New(sc)
	for i := 1; i <= 2400; i++ {
		tab.MustInsert(i, table.Tuple{
			fmt.Sprintf("d%d", rng.Intn(2)),
			fmt.Sprintf("e%d", rng.Intn(4)),
			fmt.Sprintf("a%d", rng.Intn(40)),
			fmt.Sprintf("b%d", rng.Intn(40)),
			fmt.Sprintf("c%d", rng.Intn(4)),
		}, float64(1+rng.Intn(4)))
	}
	return ds, tab
}

// TestSchedulerDeepChainLateFanOut: the deep-chain shape must (a) stay
// byte-identical to the serial engine at every worker count and (b)
// actually move tasks between workers — queued blocks executed from
// deques, some of them stolen across recursion levels — rather than
// degenerating to one worker walking the tree. The steal must not
// depend on how soon the OS runs a helper goroutine: the slow-block
// failpoint stalls the first block dispatch of each solve for
// holdFirstBlock. Both top-level blocks are queued before it, and the
// helper the first push spawned is runnable, so a helper steals a
// top-level block while the first dispatcher (producer or helper) is
// held. The steal assertion is enforced on multi-core runs (CI pins
// GOMAXPROCS=4 for this test).
func TestSchedulerDeepChainLateFanOut(t *testing.T) {
	const holdFirstBlock = 50 * time.Millisecond
	ds, tab := deepChainTable(t)
	serial, err := OptSRepair(ds, tab)
	if err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	for _, w := range []int{2, 4} {
		failpoint.Enable(failpoint.SlowBlock, failpoint.Spec{Count: 1, Sleep: holdFirstBlock})
		st := new(solve.Stats)
		got, err := OptSRepairCtx(solve.New(w, nil, st), ds, tab)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if fires := failpoint.Fires(failpoint.SlowBlock); fires != 1 {
			t.Fatalf("workers=%d: slow-block fired %d times, want 1", w, fires)
		}
		failpoint.DisableAll()
		sameRepair(t, fmt.Sprintf("deep-chain/workers=%d", w), tab, got, serial)
		snap := st.Snapshot()
		if snap.BlocksParallel == 0 {
			t.Fatalf("workers=%d: no blocks executed as scheduler tasks: %+v", w, snap)
		}
		if runtime.GOMAXPROCS(0) > 1 && snap.Steals == 0 {
			t.Fatalf("workers=%d: no cross-worker steals on the late-fan-out shape: %+v", w, snap)
		}
	}
}
