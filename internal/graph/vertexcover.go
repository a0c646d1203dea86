package graph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/solve"
)

// Graph is an undirected graph with float64 vertex weights, used for the
// vertex-cover view of optimal S-repairs: vertices are row positions,
// edges are conflicts, and a minimum-weight vertex cover is exactly the
// set of tuples deleted by an optimal S-repair. The exact search and
// the oracles build one; the 2-approximate engines skip it and run
// BarYehudaEven on their weights and conflict pairs.
type Graph struct {
	n       int
	weights []float64
	adj     [][]int
	edges   [][2]int
	edgeSet map[[2]int]bool
}

// NewGraph creates a graph with n vertices of the given weights
// (len(weights) must equal n; weights must be positive).
func NewGraph(weights []float64) (*Graph, error) {
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("graph: vertex %d has non-positive weight %v", i, w)
		}
	}
	return &Graph{
		n:       len(weights),
		weights: append([]float64(nil), weights...),
		adj:     make([][]int, len(weights)),
		edgeSet: map[[2]int]bool{},
	}, nil
}

// MustNewGraph is NewGraph that panics on error.
func MustNewGraph(weights []float64) *Graph {
	g, err := NewGraph(weights)
	if err != nil {
		panic(err)
	}
	return g
}

// AddEdge inserts an undirected edge; self-loops and out-of-range
// vertices are rejected, duplicates are ignored.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on %d", u)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	if g.edgeSet[key] {
		return nil
	}
	g.edgeSet[key] = true
	g.edges = append(g.edges, key)
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Weight returns the weight of vertex v.
func (g *Graph) Weight(v int) float64 { return g.weights[v] }

// Edges returns the edge list (shared; do not mutate).
func (g *Graph) Edges() [][2]int { return g.edges }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// IsVertexCover reports whether the vertex set covers all edges.
func (g *Graph) IsVertexCover(cover map[int]bool) bool {
	for _, e := range g.edges {
		if !cover[e[0]] && !cover[e[1]] {
			return false
		}
	}
	return true
}

// CoverWeight returns the total weight of the vertex set.
func (g *Graph) CoverWeight(cover map[int]bool) float64 {
	var sum float64
	for v := range cover {
		if cover[v] {
			sum += g.weights[v]
		}
	}
	return sum
}

// ApproxVertexCoverBE is BarYehudaEven on the graph's vertices and
// edge list, with the cover as a vertex set.
func (g *Graph) ApproxVertexCoverBE() map[int]bool {
	cover := map[int]bool{}
	for v, in := range BarYehudaEven(g.weights, g.edges) {
		if in {
			cover[v] = true
		}
	}
	return cover
}

// BarYehudaEven computes a vertex cover of weight at most twice the
// minimum by the Bar-Yehuda–Even local-ratio algorithm: walk the edges
// in list order, and for each still-uncovered edge transfer the smaller
// residual weight off both endpoints; vertices whose residual reaches
// zero enter the cover. Vertex v weighs weights[v]; an edge is a pair
// of vertices. The result marks the cover. Linear in vertices plus
// edges, and it neither copies nor indexes the edge list, so callers
// hand it their conflict pairs as they are.
func BarYehudaEven[V int32 | int](weights []float64, edges [][2]V) []bool {
	res := append([]float64(nil), weights...)
	cover := make([]bool, len(weights))
	for _, e := range edges {
		u, v := e[0], e[1]
		if cover[u] || cover[v] {
			continue
		}
		d := min(res[u], res[v])
		res[u] -= d
		res[v] -= d
		if res[u] <= 0 {
			cover[u] = true
		}
		if res[v] <= 0 {
			cover[v] = true
		}
	}
	return cover
}

// FromPairs is the graph over vertices 0..len(weights)-1 with the given
// edges, which the caller guarantees in range, free of self-loops and
// distinct (so no duplicate check runs); the exact cover search runs on
// it.
func FromPairs(weights []float64, edges [][2]int32) *Graph {
	g := MustNewGraph(weights)
	for _, e := range edges {
		u, v := int(min(e[0], e[1])), int(max(e[0], e[1]))
		g.edges = append(g.edges, [2]int{u, v})
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	return g
}

// PackPair packs the pair (i, j) of non-negative vertices into one key
// whose unsigned order is the lexicographic order of (i, j).
func PackPair(i, j int32) uint64 { return uint64(i)<<32 | uint64(j) }

// SortPairs merges lists of PackPair keys into one pair list in
// ascending (i, j) order without duplicates.
func SortPairs(lists [][]uint64) [][2]int32 {
	keys := slices.Concat(lists...)
	slices.Sort(keys)
	out := make([][2]int32, 0, len(keys))
	for k, key := range keys {
		if k > 0 && key == keys[k-1] {
			continue
		}
		out = append(out, [2]int32{int32(key >> 32), int32(uint32(key))})
	}
	return out
}

// GreedyVertexCover computes a cover by repeatedly taking the vertex
// with maximum degree/weight ratio among vertices with uncovered
// incident edges. A baseline for the bench harness; no worst-case
// guarantee for weighted instances.
func (g *Graph) GreedyVertexCover() map[int]bool {
	covered := make([]bool, len(g.edges))
	cover := map[int]bool{}
	remaining := len(g.edges)
	edgesAt := make([][]int, g.n)
	for i, e := range g.edges {
		edgesAt[e[0]] = append(edgesAt[e[0]], i)
		edgesAt[e[1]] = append(edgesAt[e[1]], i)
	}
	for remaining > 0 {
		best, bestScore := -1, 0.0
		for v := 0; v < g.n; v++ {
			if cover[v] {
				continue
			}
			deg := 0
			for _, ei := range edgesAt[v] {
				if !covered[ei] {
					deg++
				}
			}
			if deg == 0 {
				continue
			}
			score := float64(deg) / g.weights[v]
			if best == -1 || score > bestScore {
				best, bestScore = v, score
			}
		}
		if best == -1 {
			break
		}
		cover[best] = true
		for _, ei := range edgesAt[best] {
			if !covered[ei] {
				covered[ei] = true
				remaining--
			}
		}
	}
	return cover
}

// ExactVertexCoverLimit bounds the instance size the exact solver
// accepts (it is a deliberately exponential baseline).
const ExactVertexCoverLimit = 512

// ExactMinVertexCover computes a minimum-weight vertex cover by branch
// and bound on the highest-degree uncovered vertex, with the
// 2-approximation as the initial incumbent and a simple matching-based
// lower bound for pruning. Exponential worst case; refuses instances
// with more than ExactVertexCoverLimit vertices.
func (g *Graph) ExactMinVertexCover() (map[int]bool, error) {
	return g.ExactMinVertexCoverCtx(nil)
}

// exactCancelCheckMask gates how often the branch-and-bound polls the
// solve context for cancellation: every 1024 search nodes, cheap
// relative to the per-node edge scans.
const exactCancelCheckMask = 1<<10 - 1

// ExactMinVertexCoverCtx is ExactMinVertexCover under a solve context:
// the search polls for cancellation periodically, so a deadline bounds
// the exponential worst case instead of burning CPU to completion.
func (g *Graph) ExactMinVertexCoverCtx(c *solve.Ctx) (map[int]bool, error) {
	if g.n > ExactVertexCoverLimit {
		return nil, fmt.Errorf("graph: exact vertex cover limited to %d vertices, got %d", ExactVertexCoverLimit, g.n)
	}
	// Incumbent from the 2-approximation.
	best := g.ApproxVertexCoverBE()
	bestW := g.CoverWeight(best)

	inCover := make([]int8, g.n) // 0 undecided, 1 in, -1 out
	addedStack := make([]int, 0, g.n)
	var cur float64

	uncoveredEdge := func() ([2]int, bool) {
		for _, e := range g.edges {
			if inCover[e[0]] != 1 && inCover[e[1]] != 1 {
				return e, true
			}
		}
		return [2]int{}, false
	}

	// lowerBound: greedy disjoint uncovered edges; each needs one
	// endpoint, costing at least min weight of its free endpoints.
	// Epoch-stamped scratch avoids allocating a set per search node.
	usedStamp := make([]uint32, g.n)
	var usedEpoch uint32
	lowerBound := func() float64 {
		usedEpoch++
		var lb float64
		for _, e := range g.edges {
			u, v := e[0], e[1]
			if inCover[u] == 1 || inCover[v] == 1 {
				continue
			}
			if usedStamp[u] == usedEpoch || usedStamp[v] == usedEpoch {
				continue
			}
			usedStamp[u], usedStamp[v] = usedEpoch, usedEpoch
			wu, wv := g.weights[u], g.weights[v]
			switch {
			case inCover[u] == -1 && inCover[v] == -1:
				// Both endpoints excluded: infeasible branch.
				return bestW + 1
			case inCover[u] == -1:
				lb += wv
			case inCover[v] == -1:
				lb += wu
			default:
				if wu < wv {
					lb += wu
				} else {
					lb += wv
				}
			}
		}
		return lb
	}

	var searched int
	var stopErr error
	var rec func()
	rec = func() {
		if stopErr != nil {
			return
		}
		searched++
		if searched&exactCancelCheckMask == 0 {
			if err := c.Err(); err != nil {
				stopErr = err
				return
			}
		}
		if cur+lowerBound() >= bestW-1e-12 {
			return
		}
		e, found := uncoveredEdge()
		if !found {
			// All edges covered: record incumbent.
			cover := map[int]bool{}
			for v := 0; v < g.n; v++ {
				if inCover[v] == 1 {
					cover[v] = true
				}
			}
			best, bestW = cover, cur
			return
		}
		u, v := e[0], e[1]
		// Branch: u in cover, or u out (forcing every neighbour of u
		// along uncovered edges — in particular v — into the cover).
		if inCover[u] == 0 {
			inCover[u] = 1
			cur += g.weights[u]
			rec()
			cur -= g.weights[u]
			inCover[u] = 0

			if inCover[v] != -1 {
				inCover[u] = -1
				mark := len(addedStack)
				feasible := true
				for _, w := range g.adj[u] {
					if inCover[w] == -1 {
						feasible = false
						break
					}
					if inCover[w] == 0 {
						inCover[w] = 1
						cur += g.weights[w]
						addedStack = append(addedStack, w)
					}
				}
				if feasible {
					rec()
				}
				for _, w := range addedStack[mark:] {
					inCover[w] = 0
					cur -= g.weights[w]
				}
				addedStack = addedStack[:mark]
				inCover[u] = 0
			}
			return
		}
		// u already excluded: v must be in the cover.
		if inCover[v] == 0 {
			inCover[v] = 1
			cur += g.weights[v]
			rec()
			cur -= g.weights[v]
			inCover[v] = 0
		}
		// If v is also excluded, the edge cannot be covered: dead branch.
	}
	rec()
	if stopErr != nil {
		return nil, stopErr
	}
	return best, nil
}

// CoverIDs returns the sorted vertex list of a cover (deterministic
// reporting helper).
func CoverIDs(cover map[int]bool) []int {
	out := make([]int, 0, len(cover))
	for v, in := range cover {
		if in {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
