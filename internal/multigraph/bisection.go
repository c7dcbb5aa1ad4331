package multigraph

import (
	"fmt"
	"math"
	"math/rand"
)

// Bisection width is the minimum number of simple edges (counting
// multiplicities) crossing a balanced partition of the vertices into parts
// of size floor(n/2) and ceil(n/2). It upper-bounds the bandwidth of a
// network under symmetric traffic — roughly half of all messages must cross
// any balanced cut — and the paper's Table 4 β values for the tree-like
// machines are bisection-limited.

// ExactBisection computes the bisection width by enumerating all balanced
// partitions. Cost is C(n, n/2) cut evaluations; it panics for n > 24 —
// use EstimateBisection instead.
func (g *Multigraph) ExactBisection() int64 {
	n := g.n
	if n > 24 {
		panic(fmt.Sprintf("multigraph: ExactBisection infeasible for n=%d (max 24)", n))
	}
	if n < 2 {
		return 0
	}
	half := n / 2
	side := make([]bool, n)
	best := int64(math.MaxInt64)
	// Fix vertex 0 on side A to halve the search space.
	var rec func(v, taken int)
	rec = func(v, taken int) {
		if taken == half {
			if c := g.CutWeight(side); c < best {
				best = c
			}
			return
		}
		if v >= n || n-v < half-taken {
			return
		}
		side[v] = true
		rec(v+1, taken+1)
		side[v] = false
		rec(v+1, taken)
	}
	if half == 0 {
		return 0
	}
	side[0] = true
	rec(1, 1)
	return best
}

// CutWeight returns the total multiplicity of edges with endpoints on
// opposite sides of the partition described by side (true = part A).
func (g *Multigraph) CutWeight(side []bool) int64 {
	if len(side) != g.n {
		panic(fmt.Sprintf("multigraph: partition length %d != n %d", len(side), g.n))
	}
	var cut int64
	for u := 0; u < g.n; u++ {
		if !side[u] {
			continue
		}
		for v, m := range g.adj[u] {
			if !side[v] {
				cut += m
			}
		}
	}
	return cut
}

// EstimateBisection upper-bounds the bisection width with a randomized
// Kernighan–Lin-style local search: `restarts` random balanced partitions,
// each refined by greedy balanced swaps until no swap improves the cut.
// For n <= 20 it returns the exact value.
//
// Its only rng draws are one rng.Perm(n) per restart (see
// bisectionRestarts); SkipBisectionDraws replays exactly those.
func (g *Multigraph) EstimateBisection(restarts int, rng *rand.Rand) int64 {
	restarts = g.bisectionRestarts(restarts)
	if restarts == 0 {
		return g.ExactBisection()
	}
	best := int64(math.MaxInt64)
	for r := 0; r < restarts; r++ {
		side := g.randomBalancedPartition(rng)
		cut := g.refinePartition(side)
		if cut < best {
			best = cut
		}
	}
	// A BFS-layered "sweep" partition often matches the structure of the
	// paper's machines (meshes, trees) better than random restarts.
	if g.n > 0 {
		for _, src := range []int{0, g.n - 1, g.n / 2} {
			side := g.sweepPartition(src)
			cut := g.refinePartition(side)
			if cut < best {
				best = cut
			}
		}
	}
	return best
}

// bisectionRestarts is how many random restarts EstimateBisection runs
// on g: 0 when it computes the exact value (n <= 20), else at least 1.
func (g *Multigraph) bisectionRestarts(restarts int) int {
	if g.n <= 20 {
		return 0
	}
	return max(restarts, 1)
}

// SkipBisectionDraws advances rng exactly as EstimateBisection(restarts,
// rng) would, without computing the bisection: nothing for n <= 20, else
// one rng.Perm(n) per restart (the sweep and refine passes draw nothing).
// Callers that need only the rng state after a bisection estimate use it
// to keep their later draws byte-identical.
func (g *Multigraph) SkipBisectionDraws(restarts int, rng *rand.Rand) {
	for r := g.bisectionRestarts(restarts); r > 0; r-- {
		rng.Perm(g.n)
	}
}

func (g *Multigraph) randomBalancedPartition(rng *rand.Rand) []bool {
	perm := rng.Perm(g.n)
	side := make([]bool, g.n)
	for i := 0; i < g.n/2; i++ {
		side[perm[i]] = true
	}
	return side
}

// sweepPartition puts the floor(n/2) vertices closest to src (BFS order) on
// side A.
func (g *Multigraph) sweepPartition(src int) []bool {
	dist := g.BFS(src)
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	// Stable selection of n/2 smallest distances.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j], order[j-1]
			da, db := dist[a], dist[b]
			if da == unreachable {
				da = math.MaxInt32
			}
			if db == unreachable {
				db = math.MaxInt32
			}
			if da < db {
				order[j], order[j-1] = order[j-1], order[j]
			} else {
				break
			}
		}
	}
	side := make([]bool, g.n)
	for i := 0; i < g.n/2; i++ {
		side[order[i]] = true
	}
	return side
}

// refinePartition greedily swaps the best (A,B) vertex pair while the cut
// improves, returning the final cut weight. side is modified in place.
func (g *Multigraph) refinePartition(side []bool) int64 {
	// gain[u]: reduction in cut weight if u switches sides.
	gain := make([]int64, g.n)
	recompute := func(u int) {
		var ext, int_ int64
		for v, m := range g.adj[u] {
			if side[v] != side[u] {
				ext += m
			} else {
				int_ += m
			}
		}
		gain[u] = ext - int_
	}
	for u := 0; u < g.n; u++ {
		recompute(u)
	}
	cut := g.CutWeight(side)
	const k = 6 // candidates per side; best pair among k*k avoids O(n^2) scans
	for iter := 0; iter < 4*g.n; iter++ {
		candA := g.topGain(side, true, gain, k)
		candB := g.topGain(side, false, gain, k)
		bestU, bestV := -1, -1
		var bestDelta int64
		for _, u := range candA {
			for _, v := range candB {
				delta := gain[u] + gain[v] - 2*g.adj[u][v]
				if delta > bestDelta {
					bestDelta, bestU, bestV = delta, u, v
				}
			}
		}
		if bestU < 0 {
			break
		}
		side[bestU], side[bestV] = false, true
		cut -= bestDelta
		touched := map[int]bool{bestU: true, bestV: true}
		for v := range g.adj[bestU] {
			touched[v] = true
		}
		for v := range g.adj[bestV] {
			touched[v] = true
		}
		for u := range touched {
			recompute(u)
		}
	}
	return cut
}

// topGain returns up to k vertices on the given side with the largest gain,
// in descending gain order.
func (g *Multigraph) topGain(side []bool, want bool, gain []int64, k int) []int {
	out := make([]int, 0, k)
	for u := 0; u < g.n; u++ {
		if side[u] != want {
			continue
		}
		// Insertion into the small sorted candidate list.
		pos := len(out)
		for pos > 0 && gain[out[pos-1]] < gain[u] {
			pos--
		}
		if pos < k {
			if len(out) < k {
				out = append(out, 0)
			}
			copy(out[pos+1:], out[pos:len(out)-1])
			out[pos] = u
		}
	}
	return out
}
