// Package routing simulates synchronous store-and-forward packet routing on
// a network machine, the operational model behind the paper's bandwidth
// definition: β(M, π) is the expected average delivery rate m/r(m) when m
// messages drawn from traffic distribution π are routed on M.
//
// Model (one tick = one machine step):
//   - each undirected wire of multiplicity w carries up to w messages per
//     tick in each direction;
//   - a vertex with a forwarding cap (the global-bus hub, every vertex of
//     the weak one-port hypercube) transmits at most that many messages per
//     tick in total;
//   - queues are unbounded; a message blocked on a full wire waits, while
//     later messages bound for other wires may pass it (virtual channels).
//
// Routing is greedy hop-by-hop along breadth-first shortest paths with
// random tie-breaking, optionally Valiant-style through a random
// intermediate vertex. On the machines considered this meets the
// O(congestion + dilation) bound of the universal routing scheme the paper
// cites, which is all the Θ-level measurements need.
//
// The engine routes on either adjacency representation: a materialized
// multigraph flattened into CSR arrays, or (for hypercube/mesh/torus
// machines built with topology.ImplicitWeakHypercube and friends) a
// generator that computes neighbours on the fly — the difference between a
// dim-20 hypercube being simulable or not. Every pristine hypercube, mesh
// or torus, in either representation, picks its hops with one closed-form
// kernel per geometry; every other machine, and every faulted one, walks
// BFS distance fields. The two representations produce byte-identical
// results; see pickHop and DESIGN.md.
//
// The simulator can run sharded: the vertex set is partitioned across k
// goroutines that exchange boundary packets through per-shard mailboxes
// under an epoch-counter pipeline per tick. Results are bit-for-bit
// identical to the serial run at every shard count (see shard.go and
// DESIGN.md for the contract).
package routing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// Strategy selects how routes are chosen.
type Strategy int

const (
	// Greedy routes every message along shortest paths to its destination
	// with random tie-breaking per hop.
	Greedy Strategy = iota
	// Valiant routes each message to a uniformly random intermediate
	// processor first, then to its destination — the classic two-phase
	// scheme that turns worst-case permutations into average-case traffic.
	Valiant
)

func (s Strategy) String() string {
	switch s {
	case Greedy:
		return "greedy"
	case Valiant:
		return "valiant"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Discipline selects the per-vertex queue service order.
type Discipline int

const (
	// FIFO serves each vertex queue in arrival order.
	FIFO Discipline = iota
	// FarthestFirst serves packets with the most remaining distance first —
	// the classic priority rule that keeps long-haul packets from starving
	// behind local churn.
	FarthestFirst
)

func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case FarthestFirst:
		return "farthest-first"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// geomKind tags the closed-form hop kernels.
type geomKind int

const (
	geomHypercube geomKind = iota
	geomMesh
	geomTorus
)

// Engine simulates packet routing on one machine. It caches per-destination
// distance fields, so reuse one Engine across batches on the same machine.
type Engine struct {
	M          *topology.Machine
	Strategy   Strategy
	Discipline Discipline

	// Shards is the shard count NewSim uses: the vertex set is partitioned
	// across this many goroutines per tick. 0 or 1 means serial. The
	// determinism contract guarantees identical results at every value, so
	// this is purely a throughput knob.
	Shards int

	// distPtrs caches per-destination BFS distance fields. Lazily filled
	// with atomic publication so concurrent shards can warm it without
	// locks: a racing recompute produces the identical field (BFS is
	// deterministic) and the last store wins. Nil for implicit machines;
	// unused on fault-free engines with a closed-form geometry.
	distPtrs []atomic.Pointer[[]int]

	// Explicit adjacency, flattened CSR-style (nil for implicit machines,
	// which tells the representations apart): slot j in
	// [edgeBase[u], edgeBase[u+1]) holds neighbour nbrV[j] with wire
	// multiplicity nbrMult[j], neighbours ascending — directed edge id j.
	// Sim uses the ids to keep per-tick wire usage in a flat array.
	nbrV     []int32
	nbrMult  []int64
	edgeBase []int32
	// outMult[u] is the summed multiplicity of u's out-wires: at most this
	// many packets leave u in one tick (explicit machines only).
	outMult []int64

	// geom is the closed-form geometry of a pristine hypercube, mesh or
	// torus in either representation (topology's Machine.Generator), nil
	// otherwise. Without faults it supplies exact distances and the hop
	// kernels pickHopHypercube/pickHopGrid, whose slot numbers are
	// neighbour ranks: edge u->v is edgeBase[u]+rank on CSR, u*gDeg+rank
	// on implicit machines.
	geom  *topology.Implicit
	gk    geomKind
	gDim  int // mesh/torus dimension
	gSide int // mesh/torus side
	gDeg  int // max degree = per-vertex edge-id stride on implicit machines
	// gOff[p] is the id offset of a grid neighbour at position p:
	// side^d for a ±1 step in dimension d (p = 2d), and (side-1)·side^d
	// for a torus wraparound step in it (p = 2d+1).
	gOff []int

	// caps[v] is v's forwarding capacity (-1 unlimited); nil when the
	// machine has no capped vertex, so the hot path skips the lookup.
	caps []int64

	// live is nil until EnableFaults: liveness-aware routing (masked
	// distance fields, dead-wire skipping) costs the fault-free hot path
	// nothing beyond a nil check.
	live *liveState

	// comp labels the machine graph's connected components (explicit
	// machines only), computed once by ComponentLabels.
	compOnce sync.Once
	comp     []int32

	// simFree pools retired sims for reuse via AcquireSim/ReleaseSim, so
	// repeated measurements on one engine (open-loop bisection, warm
	// sweeps) recycle the queue arenas and per-vertex tables instead of
	// reallocating ~N words per run.
	simMu   sync.Mutex
	simFree []*Sim

	numVerts int
	numEdges int // directed edge id space (CSR slots, or numVerts*gDeg)
}

// simPoolCap bounds the retired sims kept per engine. Matching on shard
// count means a shard-heterogeneous caller can hold a few variants; beyond
// the cap, extra sims are closed rather than hoarded.
const simPoolCap = 4

// AcquireSim returns a sim sharded the given number of ways (clamped like
// NewShardedSim), recycling a pooled one when a retired sim with the same
// shard count exists. The recycled sim is Reset on rng, so results are
// byte-identical to a fresh NewShardedSim — pooling is purely an allocation
// optimization. Pair with ReleaseSim (or Close). Pooled sims keep no worker
// goroutines; a recycled sharded sim gets fresh ones here.
func (e *Engine) AcquireSim(rng *rand.Rand, shards int) *Sim {
	if shards < 1 {
		shards = 1
	}
	if shards > e.numVerts {
		shards = e.numVerts
	}
	e.simMu.Lock()
	for i := len(e.simFree) - 1; i >= 0; i-- {
		s := e.simFree[i]
		if len(s.shards) == shards {
			e.simFree[i] = e.simFree[len(e.simFree)-1]
			e.simFree = e.simFree[:len(e.simFree)-1]
			e.simMu.Unlock()
			s.Reset(rng)
			if shards > 1 {
				s.startWorkers()
			}
			return s
		}
	}
	e.simMu.Unlock()
	return e.NewShardedSim(rng, shards)
}

// ReleaseSim retires a sim into the engine's pool for a later AcquireSim.
// Closed sims are ignored; sims that ran a fault schedule, or overflow the
// pool, are closed instead of pooled.
func (e *Engine) ReleaseSim(s *Sim) {
	if s == nil || s.closed {
		return
	}
	if s.eng != e {
		panic("routing: ReleaseSim on a foreign engine")
	}
	if s.faults != nil {
		s.Close()
		return
	}
	e.simMu.Lock()
	if len(e.simFree) < simPoolCap {
		s.stopWorkers()
		e.simFree = append(e.simFree, s)
		e.simMu.Unlock()
		return
	}
	e.simMu.Unlock()
	s.Close()
}

// NewEngine returns an engine for m using the given strategy.
func NewEngine(m *topology.Machine, strategy Strategy) *Engine {
	e := &Engine{M: m, Strategy: strategy}
	if im := m.Implicit; im != nil {
		e.numVerts = im.N()
		e.numEdges = e.numVerts * im.MaxDeg()
	} else {
		g := m.Graph
		e.numVerts = g.N()
		e.edgeBase = make([]int32, g.N()+1)
		for u := 0; u < g.N(); u++ {
			e.edgeBase[u] = int32(e.numEdges)
			e.numEdges += len(g.Neighbors(u))
		}
		e.edgeBase[g.N()] = int32(e.numEdges)
		e.nbrV = make([]int32, e.numEdges)
		e.nbrMult = make([]int64, e.numEdges)
		e.outMult = make([]int64, g.N())
		for u := 0; u < g.N(); u++ {
			j := e.edgeBase[u]
			for _, v := range g.Neighbors(u) { // sorted
				e.nbrV[j] = int32(v)
				e.nbrMult[j] = g.Multiplicity(u, v)
				e.outMult[u] += e.nbrMult[j]
				j++
			}
		}
		e.distPtrs = make([]atomic.Pointer[[]int], g.N())
	}
	if im := m.Generator(); im != nil {
		e.geom = im
		e.gDeg = im.MaxDeg()
		if _, ok := im.Hypercube(); ok {
			e.gk = geomHypercube
		} else {
			dim, side, wrap, _ := im.Grid()
			e.gDim, e.gSide = dim, side
			e.gk = geomMesh
			if wrap {
				e.gk = geomTorus
			}
			e.gOff = make([]int, 2*dim)
			for d, stride := 0, 1; d < dim; d, stride = d+1, stride*side {
				e.gOff[2*d], e.gOff[2*d+1] = stride, (side-1)*stride
			}
		}
	}
	if m.VertexCap != nil || m.UniformCap > 0 {
		e.caps = make([]int64, e.numVerts)
		for v := range e.caps {
			e.caps[v] = m.Cap(v)
		}
	}
	return e
}

// ComponentLabels returns the connected-component label of every vertex
// of an explicit machine's graph, components numbered in the order of
// their smallest vertex. It is computed once per engine: the graph is
// immutable, and the fault mask never enters it. Implicit machines are
// connected by construction and get nil. Treat the result as read-only.
func (e *Engine) ComponentLabels() []int32 {
	if e.edgeBase == nil {
		return nil
	}
	e.compOnce.Do(func() {
		comp := make([]int32, e.numVerts)
		for i := range comp {
			comp[i] = -1
		}
		var queue []int32
		label := int32(0)
		for s := range comp {
			if comp[s] >= 0 {
				continue
			}
			comp[s] = label
			queue = append(queue[:0], int32(s))
			for len(queue) > 0 {
				u := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				for _, v := range e.nbrV[e.edgeBase[u]:e.edgeBase[u+1]] {
					if comp[v] < 0 {
						comp[v] = label
						queue = append(queue, v)
					}
				}
			}
			label++
		}
		e.comp = comp
	})
	return e.comp
}

// wireCap bounds how many packets u can forward in one tick: the summed
// multiplicity of its out-wires, or on implicit machines (every wire of
// multiplicity 1) the maximum degree.
func (e *Engine) wireCap(u int) int64 {
	if e.edgeBase == nil {
		return int64(e.gDeg)
	}
	return e.outMult[u]
}

// edgeEnds recovers the (from, to) vertices of a directed edge id.
func (e *Engine) edgeEnds(id int32) (int, int) {
	if e.edgeBase == nil {
		u := int(id) / e.gDeg
		return u, e.geom.Neighbor(u, int(id)%e.gDeg)
	}
	// Binary search the base offsets.
	lo, hi := 0, len(e.edgeBase)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if e.edgeBase[mid] <= id {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, int(e.nbrV[id])
}

// dist returns the BFS distance field to dst, computing and caching it on
// first use. Safe for concurrent shards: publication is atomic and a racing
// duplicate compute yields the identical deterministic field.
func (e *Engine) dist(dst int) []int {
	if e.live != nil {
		return e.liveDist(dst)
	}
	if e.edgeBase == nil {
		// Implicit machines route on their closed forms; a fault-free BFS
		// field would be an O(N) allocation bug, not a fallback.
		panic("routing: BFS distance field requested on an implicit machine without faults")
	}
	if p := e.distPtrs[dst].Load(); p != nil {
		return *p
	}
	d := e.M.Graph.BFS(dst)
	e.distPtrs[dst].Store(&d)
	return d
}

// distance returns the current routing distance from u to dst: the
// geometry's closed form on pristine geometric machines, the (possibly
// fault-masked) BFS field otherwise. Under faults, -1 means unreachable.
func (e *Engine) distance(u, dst int) int {
	if e.geom != nil && e.live == nil {
		return e.geom.Distance(u, dst)
	}
	return e.dist(dst)[u]
}

// Stats reports the outcome of routing one batch.
type Stats struct {
	Messages  int     // batch size
	Ticks     int     // time to deliver the whole batch
	TotalHops int64   // wire traversals summed over messages
	MaxQueue  int     // largest per-vertex queue observed
	Rate      float64 // Messages / Ticks — the operational bandwidth sample
}

// Route injects the batch at tick 0 (every message waits at its source) and
// runs the machine until all messages are delivered, returning the stats.
// Messages whose source equals destination are rejected with a panic — the
// traffic package never produces them.
func (e *Engine) Route(batch []traffic.Message, rng *rand.Rand) Stats {
	return e.RouteSharded(batch, rng, e.Shards)
}

// RouteSharded is Route with an explicit shard count, so concurrent callers
// sharing one cached engine never mutate e.Shards. The run recycles a
// pooled sim; results are byte-identical at every shard count.
func (e *Engine) RouteSharded(batch []traffic.Message, rng *rand.Rand, shards int) Stats {
	if len(batch) == 0 {
		return Stats{}
	}
	s := e.AcquireSim(rng, shards)
	defer e.ReleaseSim(s)
	s.Inject(batch)
	limit := 200*len(batch) + 100*e.numVerts + 1000
	for s.InFlight() > 0 {
		if s.Now() > limit {
			panic(fmt.Sprintf("routing: no progress after %d ticks (%d messages left) on %s",
				s.Now(), s.InFlight(), e.M.Name))
		}
		s.Step()
	}
	return Stats{
		Messages:  len(batch),
		Ticks:     s.Now(),
		TotalHops: s.totalHops,
		MaxQueue:  s.MaxQueue(),
		Rate:      float64(len(batch)) / float64(s.Now()),
	}
}

// pickHop chooses a neighbour of u one step closer to dst whose wire still
// has capacity this tick, uniformly among the available choices using u's
// per-tick decision stream. It returns the chosen vertex and its
// directed-edge id, or (-1, -1) if all downhill wires are saturated.
// edgeUsed is indexed by edge id; only edges out of u are read or written,
// which is what makes concurrent shards safe.
//
// Every kernel enumerates the candidates in the same order — neighbours
// ascending by vertex id — and spends exactly one reservoir draw per
// unsaturated downhill neighbour, so the decision streams (and therefore
// all results) are identical across explicit, implicit, serial, and
// sharded runs, and between a closed-form kernel and the BFS-field loop.
func (e *Engine) pickHop(u, dst int, edgeUsed []int32, vr *vrand) (int, int32) {
	if e.geom != nil && e.live == nil {
		base := int32(u * e.gDeg)
		if e.edgeBase != nil {
			base = e.edgeBase[u]
		}
		if e.gk == geomHypercube {
			return e.pickHopHypercube(u, dst, base, edgeUsed, vr)
		}
		return e.pickHopGrid(u, dst, base, edgeUsed, vr)
	}
	if e.edgeBase == nil {
		return e.pickHopGeomLive(u, dst, edgeUsed, vr)
	}
	d := e.dist(dst)
	du := d[u] - 1
	lv := e.live
	best := -1
	var bestEdge int32 = -1
	count := 0
	for id := e.edgeBase[u]; id < e.edgeBase[u+1]; id++ {
		v := int(e.nbrV[id])
		if d[v] != du {
			continue
		}
		if lv != nil && lv.edgeDown[id] {
			continue
		}
		if int64(edgeUsed[id]) >= e.nbrMult[id] {
			continue
		}
		// Reservoir-sample uniformly among available downhill neighbours.
		count++
		if vr.intn(count) == 0 {
			best = v
			bestEdge = id
		}
	}
	return best, bestEdge
}

// pickHopHypercube is pickHop for the fault-free hypercube: the downhill
// neighbours are the flips of the bits where u and dst differ, enumerated
// in ascending vertex-id order (set bits high-to-low, then clear bits
// low-to-high), with edge ids base+rank computed from bit ranks — no
// adjacency memory touched at all. base is u's first edge id.
func (e *Engine) pickHopHypercube(u, dst int, base int32, edgeUsed []int32, vr *vrand) (int, int32) {
	diff := uint(u ^ dst)
	pu := bits.OnesCount(uint(u))
	best := -1
	var bestEdge int32 = -1
	count := 0
	// Differing set bits, high to low: neighbours below u, ascending.
	for d := diff & uint(u); d != 0; {
		i := bits.Len(d) - 1
		d &^= 1 << i
		rank := pu - 1 - bits.OnesCount(uint(u)&(1<<i-1))
		id := base + int32(rank)
		if edgeUsed[id] < 1 {
			count++
			if vr.intn(count) == 0 {
				best = u ^ (1 << i)
				bestEdge = id
			}
		}
	}
	// Differing clear bits, low to high: neighbours above u, ascending.
	for d := diff &^ uint(u); d != 0; {
		i := bits.TrailingZeros(d)
		d &^= 1 << i
		rank := pu + i - bits.OnesCount(uint(u)&(1<<i-1))
		id := base + int32(rank)
		if edgeUsed[id] < 1 {
			count++
			if vr.intn(count) == 0 {
				best = u ^ (1 << i)
				bestEdge = id
			}
		}
	}
	return best, bestEdge
}

// pickHopGrid is pickHop for the fault-free mesh and torus. Each
// neighbour of u lies gOff[p] below or above it for a position p, and the
// offsets ascend with p, so the neighbours below u ascend by vertex id as
// p descends and those above u as p ascends. One pass over u's and dst's
// coordinates builds position masks of the neighbours below and above u
// and of the downhill ones among them; as in pickHopHypercube, a
// neighbour's rank slot (counting every neighbour, downhill or not) is a
// popcount, and base+slot is the edge id in either representation. base
// is u's first edge id. 2·dim ≤ 56 positions fit the masks.
func (e *Engine) pickHopGrid(u, dst int, base int32, edgeUsed []int32, vr *vrand) (int, int32) {
	side := uint(e.gSide)
	var below, above, downBelow, downAbove uint64
	x, y := uint(u), uint(dst)
	if e.gk == geomMesh {
		for d := 0; d < e.gDim; d++ {
			cu, cv := x%side, y%side
			x /= side
			y /= side
			step := uint64(1) << uint(2*d) // ±1 in dimension d
			if cu > 0 {
				below |= step
				if cu > cv {
					downBelow |= step
				}
			}
			if cu < side-1 {
				above |= step
				if cu < cv {
					downAbove |= step
				}
			}
		}
	} else {
		n := int(side)
		for d := 0; d < e.gDim; d++ {
			cu, cv := int(x%side), int(y%side)
			x /= side
			y /= side
			step := uint64(1) << uint(2*d) // ±1 in dimension d
			wrap := step << 1              // wraparound in dimension d
			// Both directions can be downhill in one dimension (even
			// side, antipodal coordinate).
			dd := wrapDelta(cu-cv, n) - 1
			minusDown := wrapDelta(cu-1-cv, n) == dd
			plusDown := wrapDelta(cu+1-cv, n) == dd
			if cu > 0 {
				below |= step
				if minusDown {
					downBelow |= step
				}
			} else {
				above |= wrap
				if minusDown {
					downAbove |= wrap
				}
			}
			if cu < n-1 {
				above |= step
				if plusDown {
					downAbove |= step
				}
			} else {
				below |= wrap
				if plusDown {
					downBelow |= wrap
				}
			}
		}
	}
	best := -1
	var bestEdge int32 = -1
	count := 0
	// Downhill neighbours below u, positions high to low: ascending ids.
	for m := downBelow; m != 0; {
		p := bits.Len64(m) - 1
		m &^= 1 << p
		id := base + int32(bits.OnesCount64(below>>(p+1)))
		if edgeUsed[id] < 1 {
			count++
			if vr.intn(count) == 0 {
				best = u - e.gOff[p]
				bestEdge = id
			}
		}
	}
	// Downhill neighbours above u, positions low to high: ascending ids.
	nBelow := bits.OnesCount64(below)
	for m := downAbove; m != 0; {
		p := bits.TrailingZeros64(m)
		m &^= 1 << p
		id := base + int32(nBelow+bits.OnesCount64(above&(1<<p-1)))
		if edgeUsed[id] < 1 {
			count++
			if vr.intn(count) == 0 {
				best = u + e.gOff[p]
				bestEdge = id
			}
		}
	}
	return best, bestEdge
}

// wrapDelta is the per-dimension torus distance of a coordinate difference
// with |delta| <= side, so an unwrapped neighbour coordinate (-1 or side)
// gives the same distance as its wrapped one.
func wrapDelta(delta, side int) int {
	if delta < 0 {
		delta = -delta
	}
	if side-delta < delta {
		delta = side - delta
	}
	return delta
}

// pickHopGeomLive is pickHop for implicit machines under faults: the
// masked BFS field replaces the closed forms and dead wires are skipped,
// with neighbours enumerated through the generator in the canonical
// ascending order.
func (e *Engine) pickHopGeomLive(u, dst int, edgeUsed []int32, vr *vrand) (int, int32) {
	d := e.dist(dst)
	du := d[u] - 1
	lv := e.live
	base := int32(u * e.gDeg)
	best := -1
	var bestEdge int32 = -1
	count := 0
	e.geom.VisitNeighbors(u, func(slot, v int) {
		if d[v] != du {
			return
		}
		id := base + int32(slot)
		if lv.edgeDown[id] {
			return
		}
		if edgeUsed[id] >= 1 {
			return
		}
		count++
		if vr.intn(count) == 0 {
			best = v
			bestEdge = id
		}
	})
	return best, bestEdge
}
