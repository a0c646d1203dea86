package solve

import "testing"

// TestForEachBlockTinyInline pins the tiny-solve granularity decision:
// blocks below MinParallelBlock run inline in the producing worker
// instead of being enqueued as steal-able tasks, and the decision is
// visible in SolveStats as tasks_inlined.
func TestForEachBlockTinyInline(t *testing.T) {
	// All-tiny fan-out on a scheduled context: the pre-pass must skip
	// the scheduler wholesale and count every block.
	st := new(Stats)
	c := New(2, nil, st)
	n := 8
	out := make([]int, n)
	err := c.ForEachBlock(n, func(int) int { return 1 }, func(_ *Ctx, i int) error {
		out[i] = i + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("block %d = %d", i, v)
		}
	}
	snap := st.Snapshot()
	if snap.TasksInlined != int64(n) {
		t.Fatalf("tasks_inlined = %d, want %d", snap.TasksInlined, n)
	}
	if snap.BlocksParallel != 0 {
		t.Fatalf("blocks_parallel = %d, want 0 (nothing reached the threshold)", snap.BlocksParallel)
	}
	if snap.BlocksSerial != int64(n) {
		t.Fatalf("blocks_serial = %d, want %d", snap.BlocksSerial, n)
	}

	// Mixed fan-out: only the below-threshold block counts as inlined;
	// the large ones are enqueued (or run inline on deque pressure, but
	// never counted as a granularity decision).
	st.Reset()
	sizes := []int{MinParallelBlock * 2, 1, MinParallelBlock * 2}
	err = c.ForEachBlock(len(sizes), func(i int) int { return sizes[i] }, func(_ *Ctx, i int) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap = st.Snapshot()
	if snap.TasksInlined != 1 {
		t.Fatalf("mixed fan-out tasks_inlined = %d, want 1", snap.TasksInlined)
	}
	if snap.BlocksSerial+snap.BlocksParallel != int64(len(sizes)) {
		t.Fatalf("blocks accounted %d+%d, want %d", snap.BlocksSerial, snap.BlocksParallel, len(sizes))
	}

	// Serial context: no scheduler, no granularity decision to record.
	st2 := new(Stats)
	cs := New(1, nil, st2)
	if err := cs.ForEachBlock(4, func(int) int { return 1 }, func(*Ctx, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := st2.Snapshot().TasksInlined; got != 0 {
		t.Fatalf("serial context tasks_inlined = %d, want 0", got)
	}

	// The counter survives Snapshot/Merge/Reset round trips.
	agg := new(Stats)
	agg.Merge(snap)
	if got := agg.Snapshot().TasksInlined; got != snap.TasksInlined {
		t.Fatalf("merge lost tasks_inlined: %d vs %d", got, snap.TasksInlined)
	}
	agg.Reset()
	if agg.Snapshot() != (Snapshot{}) {
		t.Fatalf("reset left %+v", agg.Snapshot())
	}
}
