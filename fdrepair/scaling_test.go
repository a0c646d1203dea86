package fdrepair

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestScalingGuard runs every algorithm except exact at n and 4n rows
// and requires the heap bytes of one solve to grow less than 6×: a
// linear or n log n engine grows about 4×, a quadratic step 16×. Exact
// is exponential by design and caps at 512 vertices. Only bytes are
// bounded: matching on one giant component (auto's marriage input)
// takes superlinear time by design, so a time bound would fail on
// correct code. The inputs follow fdrepaird's serve-mixed request
// kinds.
func TestScalingGuard(t *testing.T) {
	const n, maxRatio = 3200, 6.0
	for _, a := range Algorithms() {
		if a == AlgoExactSRepair {
			continue
		}
		t.Run(a.Alias(), func(t *testing.T) {
			small, big := solveBytes(t, a, n), solveBytes(t, a, 4*n)
			ratio := float64(big) / float64(small)
			t.Logf("%d rows: %d B/solve, %d rows: %d B/solve, ratio %.2f", n, small, 4*n, big, ratio)
			if ratio >= maxRatio {
				t.Errorf("heap bytes per solve grew %.2f× from %d to %d rows, want < %.0f×", ratio, n, 4*n, maxRatio)
			}
		})
	}
}

// solveBytes returns the heap bytes one solve of algorithm a allocates
// on its n-row scaling input: the least of three solves after a warm-up
// solve has built the table's encodings. Each solve gets a fresh
// Solver, so the count includes its arenas: what a warm solver's pools
// still hold depends on GC timing and on which P a goroutine runs.
func solveBytes(t *testing.T, a Algorithm, n int) uint64 {
	t.Helper()
	tab, params := scalingInput(a, n, rand.New(rand.NewSource(int64(n))))
	req, err := ParseRequest(tab, a, params)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(sv *Solver) {
		if res := sv.Solve(req); res.Err != nil {
			t.Fatalf("%v on %d rows: %v", a, n, res.Err)
		}
	}
	solve(NewSolver())
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		sv := NewSolver()
		runtime.ReadMemStats(&before)
		solve(sv)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// scalingInput builds algorithm a's n-row table over (A, B, C) and its
// request parameters. Values are drawn from n/8 per attribute, except
// for cqa, whose rows satisfy A → B but for 10% noise so that each
// conflict component stays within the enumeration bound.
func scalingInput(a Algorithm, n int, rng *rand.Rand) (*Table, map[string][]string) {
	tab := NewTable(MustSchema("T", "A", "B", "C"))
	d := max(n/8, 2)
	params := map[string][]string{"fd": {"A -> B", "A B -> C"}}
	firstOf := map[int][2]int{} // A value -> id and B value of its first row
	for id := 1; id <= n; id++ {
		x, y, z := rng.Intn(d), rng.Intn(d), rng.Intn(d)
		if a == AlgoCQA && rng.Float64() >= 0.1 {
			y = x / 2
		}
		w := float64(1 + rng.Intn(4))
		if a == AlgoMostProbable {
			w = float64(1+rng.Intn(9)) / 10
		}
		tab.MustInsert(id, Tuple{fmt.Sprint("v", x), fmt.Sprint("v", y), fmt.Sprint("v", z)}, w)
		if f, ok := firstOf[x]; !ok {
			firstOf[x] = [2]int{id, y}
		} else if a == AlgoPriorityRepair && f[1] != y && len(params["prefer"]) < 16 && rng.Intn(4) == 0 {
			params["prefer"] = append(params["prefer"], fmt.Sprintf("%d>%d", f[0], id))
		}
	}
	switch a {
	case AlgoApproxSRepair:
		params["fd"] = []string{"A -> C", "B -> C"}
	case AlgoOptimalURepair:
		params["fd"] = []string{"A -> B", "A -> C"}
	case AlgoCFDSRepair:
		params = map[string][]string{"cfd": {"A -> B", "B -> C | v1 -> _"}}
	case AlgoDenialSRepair:
		params = map[string][]string{"dc": {"t1.A = t2.A & t1.B != t2.B", "t1.B = t2.B & t1.C != t2.C"}}
	case AlgoCQA:
		params = map[string][]string{"fd": {"A -> B"}, "project": {"A,B"}}
	case AlgoAuto:
		params["fd"] = []string{"A -> B", "B -> A", "B -> C"}
	}
	return tab, params
}
