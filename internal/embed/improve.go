package embed

import (
	"container/heap"
	"math/rand"
)

// Improve reroutes paths to reduce the maximum congestion: for `rounds`
// passes over the paths in random order, each path is removed and re-routed
// along a congestion-aware weighted shortest path (edge cost 1 + load²,
// which strongly penalizes hot wires while still preferring short routes).
// A pass can raise the maximum (rerouting one path shifts load onto
// another's wires), so Improve keeps the best path set seen — the input or
// the end of some pass, the earliest on ties — and leaves the embedding on
// it: the returned congestion never exceeds the input's. The embedding is
// modified in place.
func (e *Embedding) Improve(rounds int, rng *rand.Rand) int64 {
	if rounds < 1 {
		rounds = 1
	}
	loads := e.edgeLoads()
	order := make([]int, len(e.Paths))
	for i := range order {
		order[i] = i
	}
	// Reroutes replace a path's Vertices slice and never write into it, so
	// a shallow copy of Paths is a full snapshot.
	bestCong := e.Congestion()
	best := append([]Path(nil), e.Paths...)
	for round := 0; round < rounds; round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, pi := range order {
			p := &e.Paths[pi]
			if len(p.Vertices) < 2 {
				continue
			}
			mult := p.GuestEdge.Mult
			// Remove this path's load.
			for i := 0; i+1 < len(p.Vertices); i++ {
				loads[keyOf(p.Vertices[i], p.Vertices[i+1])] -= mult
			}
			src := p.Vertices[0]
			dst := p.Vertices[len(p.Vertices)-1]
			newPath := e.weightedPath(src, dst, loads)
			if newPath != nil {
				p.Vertices = newPath
			}
			for i := 0; i+1 < len(p.Vertices); i++ {
				loads[keyOf(p.Vertices[i], p.Vertices[i+1])] += mult
			}
		}
		if c := e.Congestion(); c < bestCong {
			bestCong = c
			copy(best, e.Paths)
		}
	}
	copy(e.Paths, best)
	return bestCong
}

// weightedPath runs Dijkstra on the host with edge cost 1 + (load/mult)²,
// so the router avoids congested wires but still pays for length.
func (e *Embedding) weightedPath(src, dst int, loads map[edgeKey]int64) []int {
	const inf = float64(1 << 62)
	n := e.Host.N()
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		parent[i] = -1
	}
	dist[src] = 0
	pq := &floatHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(heapItem)
		u := item.v
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		// Sorted neighbour order keeps tie-breaking (and thus the whole
		// improvement pass) deterministic for a given seed.
		for _, v := range e.Host.Neighbors(u) {
			if done[v] {
				continue
			}
			mult := e.Host.Multiplicity(u, v)
			load := float64(loads[keyOf(u, v)]) / float64(mult)
			w := 1 + load*load
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				heap.Push(pq, heapItem{v: v, d: nd})
			}
		}
	}
	if parent[dst] == -1 && src != dst {
		return nil
	}
	var rev []int
	for v := dst; v != src; v = parent[v] {
		rev = append(rev, v)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

type heapItem struct {
	v int
	d float64
}

type floatHeap []heapItem

func (h floatHeap) Len() int            { return len(h) }
func (h floatHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h floatHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *floatHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
