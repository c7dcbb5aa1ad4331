package routing

import (
	"fmt"
	"math/rand"

	"repro/internal/measure"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Sim is an incremental simulation: messages can be injected while the
// machine runs, which is what the open-loop (steady-state) bandwidth
// measurements need. Route is a batch wrapper around it.
//
// The inner loop is allocation-free at steady state: per-tick wire usage
// lives in a flat array cleared through a touched-list, per-vertex queues
// live in per-shard chunk arenas that recycle their storage, mailboxes
// reuse their backing arrays, and delivery latencies stream into bucketed
// histograms (see TestStepSteadyStateAllocs and
// TestShardedStepSteadyStateAllocs for the enforced budgets).
//
// A Sim always runs as one or more shards (shard.go): the vertex set is
// partitioned, each shard advances its own queues, and boundary packets
// cross shards through per-(source, destination)-shard mailboxes under an
// epoch-counter pipeline per tick. Every random decision is keyed by
// (tick, vertex), never drawn from a shared stream, so the results are
// bit-for-bit identical at every shard count and under every partition;
// the serial simulator is simply the one-shard instance run inline.
type Sim struct {
	eng *Engine
	rng *rand.Rand // injection-side stream: sampling and Valiant intermediates

	// planState roots the per-(tick, vertex) decision streams; tickRoot and
	// vertexRand derive them exactly as measure.SeedPlan.Fork(tick, vertex)
	// would.
	planState uint64

	shards  []*simShard
	workers []*shardWorker // len(shards)-1 long-lived goroutines; nil when serial
	shardOf []int32        // vertex id -> owning shard

	// epochs[i] is the last tick shard i finished its move phase for —
	// the publication point of its outboxes. A shard's arrive spins on the
	// epochs of its in-neighbour shards only, so unrelated shards pipeline
	// freely instead of meeting at a global barrier.
	epochs []shardEpoch

	vq       []vqueue // per-vertex queue state; touched only by the owning shard
	edgeUsed []int32  // per directed edge id, usage this tick (owner-shard writes)

	now int // current tick

	// Global counters. Shard phases accumulate per-tick deltas which Step
	// folds in after the tick, so between Steps these are authoritative.
	injected     int
	delivered    int
	dropped      int // lost to faults: dead endpoints, spent retries, TTL
	retried      int // stranded-packet retry events
	totalHops    int64
	latencySum   int64
	maxQueue     int
	injectedTick int // injections since the last Step, for the stats series
	droppedTick  int // driver-context drops (dead-endpoint injection, reaping)

	latMerged   Histogram // lazily merged view of the shard latency histograms
	latMergedAt int       // delivered count the merge is valid for; -1 = dirty

	stats  *statsRec   // nil unless EnableStats was called
	faults *faultState // nil unless SetFaults was called
	closed bool
}

// simPacket is one in-flight message, packed to 24 bytes so queue chunks
// and mailboxes stay cache-friendly at million-packet populations.
type simPacket struct {
	at       int32 // current vertex
	dst      int32 // current target (intermediate during Valiant phase 1)
	finalDst int32
	born     int32
	// sleepUntil is the tick before which a backed-off packet is not
	// served (faults only).
	sleepUntil int32
	// retries counts reroute attempts while stranded (faults only).
	retries uint8
	phase1  bool // still heading for the Valiant intermediate
}

// vqueue is one vertex's queue: a chain of fixed-size chunks in the owning
// shard's arena. Every chunk in the chain is full except the tail (move
// rewrites chains densely), so the position of packet i is chunk i/cap,
// slot i%cap along the chain.
type vqueue struct {
	head, tail int32 // chunk ids in the owning shard's arena; -1 when empty
	n          int32
}

// NewSim returns a fresh simulation on the engine's machine, sharded
// e.Shards ways (serial when e.Shards <= 1). Call Close when done with a
// sharded sim to release its worker goroutines.
func (e *Engine) NewSim(rng *rand.Rand) *Sim {
	return e.NewShardedSim(rng, e.Shards)
}

// NewShardedSim returns a simulation whose vertex set is partitioned into
// the given number of contiguous-id shards, each advanced by its own
// goroutine per tick. shards is clamped to [1, vertices]. Results are
// bit-for-bit identical to the serial sim at every shard count; see
// DESIGN.md for the determinism contract. Call Close when done.
func (e *Engine) NewShardedSim(rng *rand.Rand, shards int) *Sim {
	n := e.numVerts
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	assign := make([]int, n)
	for i := 0; i < shards; i++ {
		for v := i * n / shards; v < (i+1)*n/shards; v++ {
			assign[v] = i
		}
	}
	return e.newSim(rng, shards, assign)
}

// NewPartitionedSim is NewShardedSim with an explicit vertex->shard
// assignment (for cut-minimizing partitions, e.g. topology.BFSPartition).
// assign must map every vertex to a shard in [0, max(assign)]; the shard
// count is max(assign)+1. The partition affects only which goroutine
// advances which vertex — never the results.
func (e *Engine) NewPartitionedSim(rng *rand.Rand, assign []int) *Sim {
	n := e.numVerts
	if len(assign) != n {
		panic(fmt.Sprintf("routing: partition over %d vertices on machine of %d", len(assign), n))
	}
	shards := 0
	for v, sh := range assign {
		if sh < 0 {
			panic(fmt.Sprintf("routing: vertex %d assigned to negative shard %d", v, sh))
		}
		if sh+1 > shards {
			shards = sh + 1
		}
	}
	return e.newSim(rng, shards, assign)
}

func (e *Engine) newSim(rng *rand.Rand, shards int, assign []int) *Sim {
	n := e.numVerts
	s := &Sim{
		eng:         e,
		rng:         rng,
		planState:   uint64(measure.NewSeedPlan(rng.Int63()).Seed()),
		vq:          make([]vqueue, n),
		edgeUsed:    make([]int32, e.numEdges),
		shardOf:     make([]int32, n),
		epochs:      make([]shardEpoch, shards),
		latMergedAt: -1,
	}
	for i := range s.vq {
		s.vq[i].head, s.vq[i].tail = -1, -1
	}
	s.shards = make([]*simShard, shards)
	for i := range s.shards {
		s.shards[i] = &simShard{id: i, freeHead: -1, activeLo: n, failedAt: make([]uint32, n)}
	}
	// Each shard's active bitset spans its lowest to highest owned id.
	hi := make([]int, shards)
	for v, k := range assign {
		s.shardOf[v] = int32(k)
		sh := s.shards[k]
		sh.owned++
		sh.activeLo = min(sh.activeLo, v)
		hi[k] = v
	}
	for k, sh := range s.shards {
		if sh.owned > 0 {
			sh.activeBits = make([]uint64, (hi[k]-sh.activeLo)/64+1)
		}
	}
	s.wireShardTopology()
	if shards > 1 {
		s.startWorkers()
	}
	return s
}

// wireShardTopology computes, once, which shards can exchange packets: a
// packet only ever crosses from shard i to shard j along a graph edge, so
// each shard clears and merges only its neighbour shards' mailboxes and
// waits only on their epochs. Serial sims get the trivial self-loop.
func (s *Sim) wireShardTopology() {
	e := s.eng
	k := len(s.shards)
	for _, sh := range s.shards {
		sh.outbox = make([][]arrival, k)
	}
	if k == 1 {
		sh := s.shards[0]
		sh.srcShards = []int32{0}
		sh.outNbrs = []int32{0}
		sh.heads = make([]int, 1)
		return
	}
	adj := make([]bool, k*k)
	for i := 0; i < k; i++ {
		adj[i*k+i] = true
	}
	if e.edgeBase == nil {
		var su int
		visit := func(slot, v int) {
			adj[su*k+int(s.shardOf[v])] = true
		}
		for u := 0; u < e.numVerts; u++ {
			su = int(s.shardOf[u])
			e.geom.VisitNeighbors(u, visit)
		}
	} else {
		for u := 0; u < e.numVerts; u++ {
			su := int(s.shardOf[u])
			for j := e.edgeBase[u]; j < e.edgeBase[u+1]; j++ {
				adj[su*k+int(s.shardOf[e.nbrV[j]])] = true
			}
		}
	}
	for i, sh := range s.shards {
		for j := 0; j < k; j++ {
			if adj[j*k+i] {
				sh.srcShards = append(sh.srcShards, int32(j))
			}
			if adj[i*k+j] {
				sh.outNbrs = append(sh.outNbrs, int32(j))
			}
		}
		for _, j := range sh.srcShards {
			if int(j) != i {
				sh.waitFor = append(sh.waitFor, j)
			}
		}
		sh.heads = make([]int, len(sh.srcShards))
	}
}

// ShardCount returns the number of shards the sim runs on.
func (s *Sim) ShardCount() int { return len(s.shards) }

// Reset returns the sim to the state a fresh NewShardedSim on the same
// engine and partition would have, rooted at rng, while keeping every
// allocation: chunk arenas, queue tables, mailbox backing arrays, histogram
// buckets, and the worker goroutines all survive (a sim retired to its
// engine's pool has none; AcquireSim restarts them). A warm (reset) run is
// byte-identical to a cold one because the only run-visible state — queues,
// per-tick wire usage, counters, histograms, epochs, and the rng-derived
// plan seed — is restored exactly; the recycled storage is never observable.
//
// Sims that ran a fault schedule cannot be reset: SetFaults hands the
// engine's liveness mask to the sim, so the pair is torn down together.
func (s *Sim) Reset(rng *rand.Rand) {
	if s.closed {
		panic("routing: Reset on a closed Sim")
	}
	if s.faults != nil {
		panic("routing: Reset on a Sim with a fault schedule; faulted runs need a fresh Engine")
	}
	for _, sh := range s.shards {
		// Edge usage dirtied by the final move of the previous run is
		// normally cleared at the start of the next move; clear it now so
		// the first tick starts from zero usage.
		for _, id := range sh.touched {
			s.edgeUsed[id] = 0
		}
		sh.touched = sh.touched[:0]
		// A vertex is in its shard's active set exactly while its queue is
		// non-empty, so draining the active sets returns every live chunk
		// chain to the arena.
		sh.forActive(func(u int) { sh.qfree(&s.vq[u]) })
		clear(sh.activeBits)
		for j := range sh.outbox {
			sh.outbox[j] = sh.outbox[j][:0]
		}
		sh.latHist.Reset()
		sh.queueOcc.Reset()
		sh.maxQueue = 0
		sh.tickDelivered, sh.tickDropped, sh.tickRetried = 0, 0, 0
		sh.tickHops, sh.tickLatency = 0, 0
	}
	// Workers are idle between Steps (Step joins them), so plain stores are
	// safe. Zeroing is mandatory: the epoch pipeline orders shards by
	// comparing against the restarted tick counter.
	for i := range s.epochs {
		s.epochs[i].v.Store(0)
	}
	s.now = 0
	s.injected, s.delivered, s.dropped, s.retried = 0, 0, 0, 0
	s.totalHops, s.latencySum = 0, 0
	s.maxQueue = 0
	s.injectedTick, s.droppedTick = 0, 0
	s.latMerged.Reset()
	s.latMergedAt = -1
	s.stats = nil
	// Re-root the decision streams exactly as newSim does, consuming the
	// same single draw from rng.
	s.rng = rng
	s.planState = uint64(measure.NewSeedPlan(rng.Int63()).Seed())
}

// Close releases the sim's worker goroutines. It is idempotent; only
// Step panics afterwards, counters and Snapshot stay readable. Serial sims
// have no workers, but closing them is harmless.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.stopWorkers()
}

// tickRoot is the current tick's half of every vertex's decision stream,
// the same for all vertices, so a move phase computes it once.
func (s *Sim) tickRoot() uint64 {
	return mix64(s.planState + 0x9e3779b97f4a7c15 + mix64(uint64(s.now)))
}

// vertexRand derives vertex u's decision stream for the tick whose
// tickRoot is given: exactly the stream measure.SeedPlan.Fork(tick, vertex)
// addresses, inlined so the hot path stays free of variadic calls. Keying
// by (tick, vertex) — never by shard — is what makes results independent
// of the shard count.
func vertexRand(tickRoot uint64, u int) vrand {
	return vrand{state: mix64(tickRoot + 0x9e3779b97f4a7c15 + mix64(uint64(u)))}
}

// Now returns the current tick.
func (s *Sim) Now() int { return s.now }

// InFlight returns the number of messages still queued somewhere in the
// machine: injected minus delivered minus dropped. The fault conservation
// invariant is that this always equals the total queued-packet count.
func (s *Sim) InFlight() int { return s.injected - s.delivered - s.dropped }

// Delivered returns the number of delivered messages.
func (s *Sim) Delivered() int { return s.delivered }

// Injected returns the number of injected messages.
func (s *Sim) Injected() int { return s.injected }

// MeanLatency returns the average injection-to-delivery time over all
// delivered messages (0 if none).
func (s *Sim) MeanLatency() float64 {
	if s.delivered == 0 {
		return 0
	}
	return float64(s.latencySum) / float64(s.delivered)
}

// MaxQueue returns the largest per-vertex queue seen so far.
func (s *Sim) MaxQueue() int { return s.maxQueue }

// LatencyPercentile returns the nearest-rank p-th percentile (0 < p <= 1)
// of delivery latencies observed so far, or 0 if nothing was delivered.
// Latencies stream into a bucketed histogram, so the answer is exact below
// 256 ticks and within one bucket width (<1% relative) above.
func (s *Sim) LatencyPercentile(p float64) int {
	return s.latencyHist().Quantile(p)
}

// LatencyHistogram exposes the streaming delivery-latency histogram (a
// merged view across shards; treat it as read-only).
func (s *Sim) LatencyHistogram() *Histogram { return s.latencyHist() }

// latencyHist returns the delivery-latency histogram merged across shards,
// rebuilt only when deliveries happened since the last merge.
func (s *Sim) latencyHist() *Histogram {
	if len(s.shards) == 1 {
		return &s.shards[0].latHist
	}
	if s.latMergedAt != s.delivered {
		s.latMerged.Reset()
		for _, sh := range s.shards {
			s.latMerged.Merge(&sh.latHist)
		}
		s.latMergedAt = s.delivered
	}
	return &s.latMerged
}

// queueLen returns vertex u's current queue length (the chunk chain is in
// u's owning shard; callers in driver context only).
func (s *Sim) queueLen(u int) int { return int(s.vq[u].n) }

func (s *Sim) push(p simPacket) {
	u := int(p.at)
	sh := s.shards[s.shardOf[u]]
	sh.setActive(u)
	sh.qpush(&s.vq[u], p)
}

func (s *Sim) injectOne(m traffic.Message) {
	if m.Src == m.Dst {
		panic(fmt.Sprintf("routing: self-message %+v", m))
	}
	if !s.eng.M.IsProcessor(m.Src) || !s.eng.M.IsProcessor(m.Dst) {
		panic(fmt.Sprintf("routing: message %+v endpoints must be processors", m))
	}
	if lv := s.eng.live; lv != nil && (lv.nodeDown[m.Src] || lv.nodeDown[m.Dst]) {
		// Traffic at a dead endpoint is lost, not queued: it still counts
		// as injected so the conservation invariant stays exact.
		s.injected++
		s.injectedTick++
		s.dropped++
		s.droppedTick++
		return
	}
	p := simPacket{at: int32(m.Src), dst: int32(m.Dst), finalDst: int32(m.Dst), born: int32(s.now)}
	if s.eng.Strategy == Valiant {
		mid := s.rng.Intn(s.eng.M.N())
		if mid != m.Src && mid != m.Dst && !s.eng.NodeDown(mid) {
			p.dst = int32(mid)
			p.phase1 = true
		}
	}
	s.injected++
	s.injectedTick++
	s.push(p)
}

// Inject adds messages at the current tick. Sources and destinations must
// be processors; self-messages are rejected.
func (s *Sim) Inject(batch []traffic.Message) {
	for _, m := range batch {
		s.injectOne(m)
	}
}

// InjectSampled draws k messages from dist using the sim's rng and injects
// them at the current tick — equivalent to Inject(traffic.Batch(dist, k,
// rng)) without materialising the batch slice. The open-loop driver uses it
// to keep the per-tick loop allocation-free.
func (s *Sim) InjectSampled(dist traffic.Distribution, k int) {
	for i := 0; i < k; i++ {
		s.injectOne(dist.Sample(s.rng))
	}
}

// Step advances the machine one tick and returns the number of messages
// delivered during it. Each shard runs move (serve its queues, post moved
// packets to per-shard mailboxes, publish its epoch) then arrive (spin
// until its in-neighbour shards' epochs reach this tick, merge the inbound
// mailboxes in sender order, apply arrivals); the driver then folds the
// shards' per-tick deltas into the global counters.
func (s *Sim) Step() int {
	if s.closed {
		panic("routing: Step on a closed Sim")
	}
	s.now++
	injectedThisTick := s.injectedTick
	s.injectedTick = 0
	if s.faults != nil {
		s.applyFaultEvents()
	}
	droppedPreStep := s.droppedTick // injection-time and reaping drops
	s.droppedTick = 0

	if s.workers == nil {
		sh := s.shards[0]
		sh.move(s)
		sh.arrive(s)
	} else {
		for _, w := range s.workers {
			w.cmd <- struct{}{}
		}
		s.tickShard(s.shards[0])
		for _, w := range s.workers {
			<-w.done
		}
	}

	deliveredNow := 0
	droppedNow := 0
	for _, sh := range s.shards {
		deliveredNow += sh.tickDelivered
		droppedNow += sh.tickDropped
		s.retried += sh.tickRetried
		s.totalHops += sh.tickHops
		s.latencySum += sh.tickLatency
		if sh.maxQueue > s.maxQueue {
			s.maxQueue = sh.maxQueue
		}
		sh.tickDelivered, sh.tickDropped, sh.tickRetried = 0, 0, 0
		sh.tickHops, sh.tickLatency = 0, 0
	}
	s.delivered += deliveredNow
	s.dropped += droppedNow

	if r := s.stats; r != nil {
		r.injectedSeries = append(r.injectedSeries, injectedThisTick)
		r.deliveredSeries = append(r.deliveredSeries, deliveredNow)
		r.droppedSeries = append(r.droppedSeries, droppedPreStep+droppedNow)
	}
	return deliveredNow
}

// OpenLoopResult reports a steady-state run at a fixed injection rate.
type OpenLoopResult struct {
	Rate        float64 // requested injection rate (messages/tick)
	Ticks       int
	Injected    int
	Delivered   int
	Dropped     int     // packets lost to faults (0 on fault-free runs)
	Retried     int     // stranded-packet retry events (0 on fault-free runs)
	Throughput  float64 // delivered per tick over the measurement window
	MeanLatency float64
	P95Latency  int // 95th percentile delivery latency over the whole run
	Backlog     int // messages still in flight at the end
	// Stable is true when the delivery rate kept up with injection: the
	// final backlog is at most a small multiple of the per-tick injection.
	Stable bool
}

// OpenLoop injects messages from dist at the given rate (messages per tick,
// fractional rates accumulate) for the given number of ticks and reports
// the achieved steady-state throughput. The first quarter of the run is
// treated as warm-up and excluded from the throughput/latency window.
func (e *Engine) OpenLoop(dist traffic.Distribution, rate float64, ticks int, rng *rand.Rand) OpenLoopResult {
	return e.OpenLoopSharded(dist, rate, ticks, rng, e.Shards)
}

// OpenLoopSharded is OpenLoop with an explicit shard count, so callers
// sharing one engine across goroutines never mutate e.Shards. The run
// recycles a pooled sim (see AcquireSim); results are byte-identical to a
// cold run at every shard count.
func (e *Engine) OpenLoopSharded(dist traffic.Distribution, rate float64, ticks int, rng *rand.Rand, shards int) OpenLoopResult {
	s := e.AcquireSim(rng, shards)
	res, _ := e.openLoop(dist, rate, ticks, rng, s)
	e.ReleaseSim(s)
	return res
}

// OpenLoopSnapshot runs OpenLoop with full instrumentation enabled and
// additionally returns the Snapshot (per-tick series, queue-occupancy
// histogram, top-k edge utilization, latency quantiles). topK bounds the
// edge list; <= 0 means 10.
func (e *Engine) OpenLoopSnapshot(dist traffic.Distribution, rate float64, ticks int, rng *rand.Rand, topK int) (OpenLoopResult, Snapshot) {
	return e.OpenLoopSnapshotSharded(dist, rate, ticks, rng, topK, e.Shards)
}

// OpenLoopSnapshotSharded is OpenLoopSnapshot with an explicit shard count.
func (e *Engine) OpenLoopSnapshotSharded(dist traffic.Distribution, rate float64, ticks int, rng *rand.Rand, topK, shards int) (OpenLoopResult, Snapshot) {
	s := e.AcquireSim(rng, shards)
	s.EnableStats()
	res, _ := e.openLoop(dist, rate, ticks, rng, s)
	snap := s.Snapshot(topK)
	e.ReleaseSim(s)
	return res, snap
}

// OpenLoopFaultsSnapshot is OpenLoopSnapshot with a fault schedule armed on
// the sim before the first tick: events fire as the run crosses their ticks,
// stranded packets retry/back off per opts, and the returned result and
// snapshot carry the dropped/retried counters.
func (e *Engine) OpenLoopFaultsSnapshot(dist traffic.Distribution, rate float64, ticks int, rng *rand.Rand, topK int, sched *topology.FaultSchedule, opts FaultOptions) (OpenLoopResult, Snapshot) {
	return e.OpenLoopFaultsSnapshotSharded(dist, rate, ticks, rng, topK, sched, opts, e.Shards)
}

// OpenLoopFaultsSnapshotSharded is OpenLoopFaultsSnapshot with an explicit
// shard count. The sim is never pooled: SetFaults binds it to the engine's
// liveness mask, so the pair belongs to this one run.
func (e *Engine) OpenLoopFaultsSnapshotSharded(dist traffic.Distribution, rate float64, ticks int, rng *rand.Rand, topK int, sched *topology.FaultSchedule, opts FaultOptions, shards int) (OpenLoopResult, Snapshot) {
	s := e.NewShardedSim(rng, shards)
	defer s.Close()
	s.EnableStats()
	s.SetFaults(sched, opts)
	res, _ := e.openLoop(dist, rate, ticks, rng, s)
	return res, s.Snapshot(topK)
}

func (e *Engine) openLoop(dist traffic.Distribution, rate float64, ticks int, rng *rand.Rand, s *Sim) (OpenLoopResult, *Sim) {
	if rate <= 0 || ticks < 8 {
		panic(fmt.Sprintf("routing: bad open-loop parameters rate=%v ticks=%d", rate, ticks))
	}
	if s == nil {
		s = e.NewSim(rng)
	}
	warmup := ticks / 4
	var acc float64
	deliveredWindow := 0
	var latWindowSum int64
	latWindowCount := 0
	for t := 0; t < ticks; t++ {
		acc += rate
		k := int(acc)
		acc -= float64(k)
		if k > 0 {
			s.InjectSampled(dist, k)
		}
		before := s.latencySum
		beforeCount := s.delivered
		d := s.Step()
		if t >= warmup {
			deliveredWindow += d
			latWindowSum += s.latencySum - before
			latWindowCount += s.delivered - beforeCount
		}
	}
	res := OpenLoopResult{
		Rate:      rate,
		Ticks:     ticks,
		Injected:  s.Injected(),
		Delivered: s.Delivered(),
		Dropped:   s.Dropped(),
		Retried:   s.Retried(),
		Backlog:   s.InFlight(),
	}
	window := ticks - warmup
	if window > 0 {
		res.Throughput = float64(deliveredWindow) / float64(window)
	}
	if latWindowCount > 0 {
		res.MeanLatency = float64(latWindowSum) / float64(latWindowCount)
	}
	res.P95Latency = s.LatencyPercentile(0.95)
	// Stability: backlog bounded by a few ticks' worth of injections.
	res.Stable = float64(res.Backlog) <= 8*rate+16
	return res, s
}

// SaturationRate binary-searches the largest stable injection rate in
// (0, upper] using runs of the given length, returning the achieved
// throughput at that rate — the steady-state (open-loop) estimate of β.
// Typical use: upper = 2*E(G), ticks = 400, 12 iterations.
func (e *Engine) SaturationRate(dist traffic.Distribution, upper float64, ticks, iters int, rng *rand.Rand) float64 {
	return e.SaturationRateSharded(dist, upper, ticks, iters, rng, e.Shards)
}

// SaturationRateSharded is SaturationRate with an explicit shard count. All
// bisection probes recycle one pooled sim.
func (e *Engine) SaturationRateSharded(dist traffic.Distribution, upper float64, ticks, iters int, rng *rand.Rand, shards int) float64 {
	if upper <= 0 {
		panic("routing: non-positive upper bound")
	}
	lo, hi := 0.0, upper
	best := 0.0
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if mid <= 0 {
			break
		}
		res := e.OpenLoopSharded(dist, mid, ticks, rng, shards)
		if res.Stable {
			lo = mid
			if res.Throughput > best {
				best = res.Throughput
			}
		} else {
			hi = mid
		}
	}
	return best
}
