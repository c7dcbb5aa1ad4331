package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"repro/internal/runspec"
	"repro/internal/store"
)

// An Op is one request of a workload's stream. Specs lists the merged
// specs whose reference bodies the response must equal, concatenated in
// order: one for /v1/measure and /v1/emulate, every point for /v1/sweep,
// the stored spec for GET /v1/results/{key}, and none for a results
// query, whose page is checked against the run's stored set instead.
type Op struct {
	Idx    int
	Label  string // stats label: a runspec kind, "sweep", "results-get" or "results-query"
	Method string
	Path   string
	Body   []byte
	Specs  []runspec.Spec
	// QueryKind, Cursor and Limit describe a results query, so its page
	// can be checked against the page the stored set must give.
	QueryKind string
	Cursor    int64
	Limit     int
}

// endpoint is the server-side histogram an op lands in.
func (op Op) endpoint() string {
	switch op.Label {
	case "sweep":
		return "/v1/sweep"
	case "results-get", "results-query":
		return "/v1/results"
	}
	return op.Specs[0].Kind.Endpoint()
}

func mesh(n int) *runspec.MachineSpec { return &runspec.MachineSpec{Family: "Mesh", Dim: 2, Size: n} }
func cube(n int) *runspec.MachineSpec { return &runspec.MachineSpec{Family: "WeakHypercube", Size: n} }

// seedBase maps a workload seed to the first run seed of its stream.
// Streams of different workload seeds use disjoint run-seed ranges, so
// their canonical keys never collide either.
func seedBase(seed int64) int64 { return 1 + int64(uint64(seed)%(1<<30))<<30 }

// shuffledBlock expands per-label counts into one block of labels in a
// seeded order. Blocks fix the mix exactly — every block holds the same
// number of each label — so the share of heavy ops in a run does not
// drift with the seed; only the order and the run seeds do.
func shuffledBlock(rng *rand.Rand, mix []slot) []string {
	var labels []string
	for _, s := range mix {
		for i := 0; i < s.n; i++ {
			labels = append(labels, s.label)
		}
	}
	rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return labels
}

type slot struct {
	label string
	n     int
}

func specOp(idx int, s runspec.Spec) Op {
	body, err := json.Marshal(s)
	if err != nil {
		panic("perfbench: marshaling a generated spec: " + err.Error())
	}
	return Op{Idx: idx, Label: string(s.Kind), Method: http.MethodPost, Path: s.Kind.Endpoint(), Body: body, Specs: []runspec.Spec{s}}
}

// ---- serve-fresh and cluster-fresh -------------------------------------

// freshShapes are the only machines the fresh stream measures: eight
// shapes of 16–256 nodes, all resident in the artifact cache after
// set-up. Emulations draw guests and hosts from the same set.
var freshShapes = []*runspec.MachineSpec{
	mesh(16), mesh(36), mesh(64), mesh(144), mesh(256),
	cube(16), cube(64), cube(256),
}

// freshMix is one 191-op block of the fresh stream. It takes its kinds
// and their relative weights from internal/loadplan.Build, the mix that
// netemuload and the chaos soak send: per 100 requests, 30 beta, 20
// open-loop, 15 lambda, 10 steady-beta, 5 fault-curve, 10 emulate (half
// direct, half mapped) and 10 GET /v1/tables. Two departures:
//   - The 10 tables reads become 10 8-point /v1/sweep batches. A tables
//     read carries no canonical key, so it cannot be fresh, and the fresh
//     stream must cover /v1/sweep.
//   - fault-curve is 1 per block, not 10 per 200. Its saturation search
//     takes tens of ms, so at Build's share it would do most of the
//     server's compute; at 1 per block it is a small share and sits
//     beyond p99, and p99 lands inside the sweep class.
var freshMix = []slot{
	{"beta", 60}, {"open-loop", 40}, {"lambda", 30}, {"steady-beta", 20},
	{"emulate-direct", 10}, {"emulate-mapped", 10}, {"sweep", 20}, {"fault-curve", 1},
}

const sweepPoints = 8

// freshGen generates the serve-fresh stream: every spec carries a run seed
// no earlier op (and no warm-up op) used, so every canonical key is new.
type freshGen struct {
	rng   *rand.Rand
	base  int64
	next  int
	block []string
}

func newFreshGen(seed int64) *freshGen {
	return &freshGen{rng: rand.New(rand.NewSource(seed)), base: seedBase(seed)}
}

func (g *freshGen) pick(shapes ...int) *runspec.MachineSpec {
	ms := *freshShapes[shapes[g.rng.Intn(len(shapes))]]
	return &ms
}

// Next returns op g.next and advances. Op i uses run seeds
// base+8i .. base+8i+7, one per sweep point.
func (g *freshGen) Next() Op {
	i := g.next
	g.next++
	if len(g.block) == 0 {
		g.block = shuffledBlock(g.rng, freshMix)
	}
	label := g.block[0]
	g.block = g.block[1:]
	runSeed := g.base + int64(sweepPoints*i)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	switch label {
	case "beta":
		return specOp(i, runspec.Spec{Kind: runspec.KindBeta, Machine: g.pick(all...), LoadFactors: []int{2}, Trials: 1, Seed: runSeed})
	case "open-loop":
		m := g.pick(all...)
		return specOp(i, runspec.Spec{Kind: runspec.KindOpenLoop, Machine: m, Rate: openLoopRate(g.rng, m.Size), Ticks: 48, Seed: runSeed})
	case "lambda":
		return specOp(i, runspec.Spec{Kind: runspec.KindLambda, Machine: g.pick(0, 1, 5), Seed: runSeed})
	case "steady-beta":
		return specOp(i, runspec.Spec{Kind: runspec.KindSteadyBeta, Machine: g.pick(0, 5), Ticks: 16, Iters: 1, Seed: runSeed})
	case "fault-curve":
		return specOp(i, runspec.Spec{Kind: runspec.KindFaultCurve, Machine: g.pick(0), FaultFracs: []float64{0.1}, Ticks: 30, Seed: runSeed})
	case "emulate-direct", "emulate-mapped":
		mode := runspec.ModeDirect
		if label == "emulate-mapped" {
			mode = runspec.ModeMapped
		}
		return specOp(i, runspec.Spec{Kind: runspec.KindEmulate, Guest: g.pick(2, 6), Host: g.pick(0, 5), Steps: 2, Mode: mode, Seed: runSeed})
	case "sweep":
		return g.sweep(i, runSeed)
	}
	panic("perfbench: unknown fresh label " + label)
}

// openLoopRate draws an injection rate of about a quarter of sqrt(n)
// messages per tick, which keeps the small meshes and cubes near or
// below saturation, so open-loop cost tracks the tick count.
func openLoopRate(rng *rand.Rand, n int) float64 {
	return float64(int((0.5+rng.Float64())*math.Sqrt(float64(n))*25)) / 100
}

func (g *freshGen) sweep(i int, runSeed int64) Op {
	m := g.pick(0, 1, 2, 5, 6)
	base := runspec.Spec{Kind: runspec.KindBeta, Machine: m, LoadFactors: []int{2}, Trials: 1}
	openLoop := g.rng.Intn(2) == 0
	if openLoop {
		base = runspec.Spec{Kind: runspec.KindOpenLoop, Machine: m, Ticks: 48}
	}
	sw := runspec.SweepSpec{Base: base}
	for j := 0; j < sweepPoints; j++ {
		seed := runSeed + int64(j)
		p := runspec.SweepPoint{Seed: &seed}
		if openLoop {
			rate := openLoopRate(g.rng, m.Size)
			p.Rate = &rate
		}
		sw.Points = append(sw.Points, p)
	}
	specs, err := sw.Specs()
	if err != nil {
		panic("perfbench: generated sweep is invalid: " + err.Error())
	}
	body, err := json.Marshal(sw)
	if err != nil {
		panic("perfbench: marshaling a generated sweep: " + err.Error())
	}
	return Op{Idx: i, Label: "sweep", Method: http.MethodPost, Path: "/v1/sweep", Body: body, Specs: specs}
}

// freshWarmup is one open-loop op per shape, with negative run seeds the
// stream never uses: it builds every machine and greedy engine the stream
// needs, so the timed window starts with a warm artifact cache.
func freshWarmup() []Op {
	ops := make([]Op, 0, len(freshShapes))
	for k, m := range freshShapes {
		ms := *m
		ops = append(ops, specOp(-1-k, runspec.Spec{Kind: runspec.KindOpenLoop, Machine: &ms, Rate: 1, Ticks: 16, Seed: int64(-1 - k)}))
	}
	return ops
}

// ---- serve-repeat --------------------------------------------------------

// memoCap is the server's in-memory response cache bound
// (internal/server/server.go, memoCapEntries): the repeat pool is larger,
// so part of the working set is never retained and re-executes.
//
// Popularity is Zipf with exponent zipfS, offset by zipfV ranks. No
// recorded netemud traffic exists to fit them to, so they are chosen:
// zipfS is the smallest round exponent above 1, the least skew Go's
// rand.Zipf draws, and close to the s = 1 of the classic Zipf law; the
// offset flattens the head so no single spec carries more than about 2%
// of requests, and coalescing stays rare.
const (
	memoCap  = 4096
	poolSize = 5120
	zipfS    = 1.1
	zipfV    = 10
)

// rankBlock is the stratum of the popularity order: every rankBlock
// consecutive ranks hold each kind rankBlock/4 times, and exactly one
// spec of each kind that fills past the memo cap.
const rankBlock = 4 * poolSize / (poolSize - memoCap)

// repeatPool builds the pool in fill order (pool index) and its
// popularity order: rank[r] is the pool index of the r-th most popular
// spec. The index of each rank is a seeded random draw, so fill order is
// independent of rank, but it is stratified: in every block of rankBlock
// consecutive ranks the kinds cycle, and one spec of each kind sits past
// the memo cap. So every seed sends each kind in the same share and
// leaves the same share of each kind unmemoized. Every spec is cheap — a
// few hundred µs at most — so the memo, coalescing and store read path
// dominate the stream.
func repeatPool(seed int64) (pool []runspec.Spec, rank []int) {
	rng := rand.New(rand.NewSource(seed ^ 0x504f4f4c)) // "POOL"
	memo := rng.Perm(memoCap)                          // indices the memo retains, in draw order
	tail := rng.Perm(poolSize - memoCap)               // offsets past the cap, in draw order
	rank = make([]int, poolSize)
	for b := 0; b < poolSize; b += rankBlock {
		for k := 0; k < 4; k++ {
			past := rng.Intn(rankBlock / 4)
			for i := 0; i < rankBlock/4; i++ {
				r := b + k + 4*i
				if i == past {
					rank[r], tail = memoCap+tail[0], tail[1:]
				} else {
					rank[r], memo = memo[0], memo[1:]
				}
			}
		}
	}
	base := seedBase(seed)
	pool = make([]runspec.Spec, poolSize)
	for r, j := range rank {
		runSeed := base + int64(j)
		switch r % 4 {
		case 0:
			pool[j] = runspec.Spec{Kind: runspec.KindBeta, Machine: pickOf(rng, mesh(16), mesh(36), cube(16)), LoadFactors: []int{2}, Trials: 1, Seed: runSeed}
		case 1:
			m := pickOf(rng, mesh(16), mesh(36), mesh(64), cube(16), cube(64))
			pool[j] = runspec.Spec{Kind: runspec.KindOpenLoop, Machine: m, Rate: openLoopRate(rng, m.Size), Ticks: 32, Seed: runSeed}
		case 2:
			pool[j] = runspec.Spec{Kind: runspec.KindLambda, Machine: pickOf(rng, mesh(16), cube(16)), Seed: runSeed}
		default:
			pool[j] = runspec.Spec{Kind: runspec.KindEmulate, Guest: pickOf(rng, mesh(64), cube(64)), Host: pickOf(rng, mesh(16), cube(16)), Steps: 1, Mode: runspec.ModeDirect, Seed: runSeed}
		}
	}
	return pool, rank
}

func pickOf(rng *rand.Rand, ms ...*runspec.MachineSpec) *runspec.MachineSpec {
	m := *ms[rng.Intn(len(ms))]
	return &m
}

// repeatMix is one 20-op block of the repeat stream: three quarters
// spec POSTs and a quarter store reads, the share the benchmark's
// definition asks for. loadplan has no key reads to take a split from,
// so the split is chosen: a query is the costliest op, and at 3 in 20
// the queries hold p90 inside their class rather than on its lower edge.
var repeatMix = []slot{{"post", 15}, {"results-get", 2}, {"results-query", 3}}

// queryKinds is the kind filter of a results query, "" for none: every
// kind the pool holds, drawn uniformly like loadplan's read filters.
var queryKinds = []string{"", "beta", "open-loop", "lambda", "emulate"}

// queryLimit is the page size of generated results queries. loadplan
// asks for 50–249 records; the benchmark keeps every page it receives
// until it verifies them after the window, and pages that size would
// hold hundreds of MB, so its pages are smaller.
const queryLimit = 10

// repeatGen draws the serve-repeat stream: POSTs and stored-key reads pick
// a pool spec by Zipf rank, and rank r names pool index rank[r].
type repeatGen struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	pool  []runspec.Spec
	rank  []int
	next  int
	block []string
}

func newRepeatGen(seed int64, pool []runspec.Spec, rank []int) *repeatGen {
	rng := rand.New(rand.NewSource(seed))
	return &repeatGen{
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, zipfV, uint64(len(pool)-1)),
		pool: pool,
		rank: rank,
	}
}

func (g *repeatGen) popular() runspec.Spec { return g.pool[g.rank[g.zipf.Uint64()]] }

func (g *repeatGen) Next() Op {
	i := g.next
	g.next++
	if len(g.block) == 0 {
		g.block = shuffledBlock(g.rng, repeatMix)
	}
	label := g.block[0]
	g.block = g.block[1:]
	switch label {
	case "post":
		return specOp(i, g.popular())
	case "results-get":
		s := g.popular()
		return Op{Idx: i, Label: label, Method: http.MethodGet, Path: "/v1/results/" + store.KeyOf(s.Canonical()), Specs: []runspec.Spec{s}}
	default:
		kind := queryKinds[g.rng.Intn(len(queryKinds))]
		cursor := int64(g.rng.Intn(len(g.pool)))
		path := fmt.Sprintf("/v1/results?limit=%d&cursor=%d", queryLimit, cursor)
		if kind != "" {
			path += "&kind=" + kind
		}
		return Op{Idx: i, Label: label, Method: http.MethodGet, Path: path, QueryKind: kind, Cursor: cursor, Limit: queryLimit}
	}
}

// fillOps posts every pool spec once, in pool order.
func fillOps(pool []runspec.Spec) []Op {
	ops := make([]Op, len(pool))
	for j, s := range pool {
		ops[j] = specOp(-1-j, s)
	}
	return ops
}

// ---- sim-heavy -------------------------------------------------------------

// simSpecs are the five large-machine specs of sim-heavy. The first four
// are sized to 4–8 ms on a 2.1 GHz Xeon, so a 30 s run holds thousands of
// ops; the emulation, which rebuilds its guest and host on every op, runs
// 16 steps and takes about three times as long (see simMix). All run
// serially. A 2-shard op's time depends on whether the box's second
// CPU is free, which on a shared 2-CPU host changed its p50 from 7 to
// 11.5 ms between runs of the same code and doubled the spread of
// sim-heavy's p99; the traced run's ladder still times 2 shards against 1
// (routing.shard_speedup).
func simSpecs() []runspec.Spec {
	return []runspec.Spec{
		{Kind: runspec.KindOpenLoop, Machine: mesh(4096), Rate: 12, Ticks: 64},
		{Kind: runspec.KindOpenLoop, Machine: &runspec.MachineSpec{Family: "WeakHypercube", Size: 4096, Adjacency: runspec.AdjImplicit}, Rate: 64, Ticks: 64},
		{Kind: runspec.KindBeta, Machine: mesh(1024), LoadFactors: []int{1}, Trials: 1},
		{Kind: runspec.KindSteadyBeta, Machine: mesh(256), Ticks: 32, Iters: 1},
		{Kind: runspec.KindEmulate, Guest: &runspec.MachineSpec{Family: "DeBruijn", Size: 256}, Host: mesh(64), Steps: 16, Mode: runspec.ModeMapped},
	}
}

// simSeeds is how many run seeds each sim-heavy spec cycles through;
// results do not depend on earlier ops (ExecuteCached has no result
// memo), so a few seeds keep the reference set small.
const simSeeds = 4

type simGen struct {
	rng   *rand.Rand
	base  int64
	specs []runspec.Spec
	next  int
	block []string
}

func newSimGen(seed int64) *simGen {
	return &simGen{rng: rand.New(rand.NewSource(seed)), base: seedBase(seed), specs: simSpecs()}
}

// simMix is one 33-op block of sim-heavy: eight of each 4–8 ms spec and
// one emulation. So the emulations, 3% of ops, are the tail: p99 lands
// inside their class, near its 67th percentile, and p90 inside the
// steady-beta class. With the emulation as common and as short as the
// rest, p99 sat in the far tail of every class, where a run with the
// hypervisor taking 8% of the CPU read 19 ms against 10–11 ms in a quiet
// one (IQR over median 0.28 over ten seeds): on a shared host a stolen
// time slice lands whole in one short op.
var simMix = []slot{{"0", 8}, {"1", 8}, {"2", 8}, {"3", 8}, {"4", 1}}

// Next returns the next spec to execute; Idx orders it in the stream.
func (g *simGen) Next() Op {
	i := g.next
	g.next++
	if len(g.block) == 0 {
		g.block = shuffledBlock(g.rng, simMix)
	}
	k := int(g.block[0][0] - '0')
	g.block = g.block[1:]
	s := g.specs[k]
	s.Seed = g.base + int64(g.rng.Intn(simSeeds))
	label := string(s.Kind)
	if k == 0 {
		label = "open-loop-mesh"
	}
	return Op{Idx: i, Label: label, Specs: []runspec.Spec{s}}
}
