package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/solve"
)

// TestMatchMemo drives one MatchMemo through the three kinds of round a
// resident session feeds it, and checks every round against a memo-less
// solve of the same edge list (Match, Picked and the bits of Total):
//
//   - weight-only changes: the structure cache hits, and only the
//     components whose weights moved are solved again;
//   - re-shaped edge lists: the structure cache misses and backs off to
//     storing only on the 1st, 2nd and power-of-two misses, while a
//     structure it did store still hits when it recurs;
//   - an edge list over memoCapEdges: the component cache resets
//     wholesale instead of growing past the cap.
func TestMatchMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	memo := NewMatchMemo()
	// round solves edges through the memo and returns how many
	// components it actually solved (the rest came from the memo).
	round := func(name string, n, m int, edges []Edge) int64 {
		t.Helper()
		want := solveSparseInstance(t, n, m, edges)
		st := new(solve.Stats)
		sm, err := NewSparseMatcher(n, m, edges)
		if err != nil {
			t.Fatal(err)
		}
		sm.Ctx = solve.New(1, nil, st)
		sm.Memo = memo
		got, err := sm.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Match, want.Match) || !slices.Equal(got.Picked, want.Picked) ||
			math.Float64bits(got.Total) != math.Float64bits(want.Total) {
			t.Fatalf("%s: memo solve (total %v, %d picked) differs from memo-less solve (total %v, %d picked)",
				name, got.Total, len(got.Picked), want.Total, len(want.Picked))
		}
		s := st.Snapshot()
		return s.MatcherFastPath + s.MatcherDense + s.MatcherSparse
	}

	// Weight-only rounds.
	n, m, base := clusteredEdges(rng, 6, 30, 80)
	first := round("cold", n, m, base)
	if first == 0 {
		t.Fatal("cold round solved no component")
	}
	if got := round("same weights", n, m, base); got != 0 || memo.structMisses != 0 {
		t.Fatalf("unchanged round solved %d components (struct misses %d), want 0 and 0", got, memo.structMisses)
	}
	moved := slices.Clone(base)
	moved[0].W += 0.5 // stays positive: the structure is unchanged
	if got := round("one weight moved", n, m, moved); got != 1 || memo.structMisses != 0 {
		t.Fatalf("one-weight round solved %d components (struct misses %d), want 1 and 0", got, memo.structMisses)
	}

	// Re-shaped rounds: the k-th consecutive miss stores its structure
	// only when k ≤ 2 or k is a power of two.
	var shapes [][]Edge
	for k := 1; k <= 5; k++ {
		rn, rm, edges := clusteredEdges(rng, 6, 30, 80)
		round("re-shaped", rn, rm, edges)
		if memo.structMisses != k {
			t.Fatalf("re-shaped round %d: struct misses = %d", k, memo.structMisses)
		}
		if stored, want := memo.structHit(rn, rm, edges), k <= 2 || k&(k-1) == 0; stored != want {
			t.Fatalf("re-shaped round %d: structure stored = %v, want %v", k, stored, want)
		}
		shapes = append(shapes, edges)
	}
	recur := slices.Clone(shapes[3]) // the 4th miss was stored
	recur[len(recur)-1].W += 0.5
	round("recurring shape", n, m, recur)
	if memo.structMisses != 0 {
		t.Fatalf("a stored structure did not hit when it recurred: struct misses = %d", memo.structMisses)
	}

	// Over the cap: distinct single-edge components (weights no earlier
	// round used), one more edge than memoCapEdges. Filling the memo to
	// the cap resets it, and the rest of the round refills it.
	before := memo.edges
	big := make([]Edge, memoCapEdges+1)
	for i := range big {
		big[i] = Edge{I: i, J: i, W: float64(100 + i)}
	}
	if got := round("over the cap", len(big), len(big), big); got != int64(len(big)) {
		t.Fatalf("over-cap round solved %d components, want %d", got, len(big))
	}
	if want := before + len(big) - memoCapEdges; memo.edges != want {
		t.Fatalf("memo holds %d edges after the over-cap round, want %d (reset at the cap)", memo.edges, want)
	}
	// The reset dropped the cold round's components.
	if got := round("cold again", n, m, base); got != first {
		t.Fatalf("after the reset the cold edge list solved %d components, want all %d", got, first)
	}
}
