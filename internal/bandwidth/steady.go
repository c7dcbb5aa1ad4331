package bandwidth

import (
	"math/rand"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// SteadyStateBeta estimates β by open-loop saturation search: messages are
// injected continuously at a trial rate and the largest rate the machine
// sustains with bounded queues is found by bisection. This is the closest
// implementation of the paper's "expected average message delivery rate"
// — no batch tails at all — at the cost of longer runs than MeasureBeta.
//
// ticks is the run length per trial rate (300–500 works), iters the
// bisection depth (8–12).
func SteadyStateBeta(m *topology.Machine, ticks, iters int, rng *rand.Rand) float64 {
	return SteadyStateBetaSharded(m, ticks, iters, 1, rng)
}

// SteadyStateBetaSharded is SteadyStateBeta on a sharded simulator: the
// vertex set is split across the given number of goroutines per tick. The
// returned value is bit-identical at every shard count.
func SteadyStateBetaSharded(m *topology.Machine, ticks, iters, shards int, rng *rand.Rand) float64 {
	return SteadyStateBetaOn(routing.NewEngine(m, routing.Greedy), ticks, iters, shards, rng)
}

// SteadyStateBetaOn is SteadyStateBetaSharded on a prebuilt (typically
// cached) engine, which it never mutates. Of the analytic bounds it needs
// only the flux bound, which caps the search window. The rng contract is
// that of the UpperBounds(m, 2, rng) call it replaces: the flux bound's
// draws, then exactly the draws that call's bisection estimate makes —
// SkipBisectionDraws replays them without computing the estimate — then
// the search. Results are byte-identical to that form, cold or cached.
func SteadyStateBetaOn(eng *routing.Engine, ticks, iters, shards int, rng *rand.Rand) float64 {
	m := eng.M
	dist := traffic.NewSymmetric(m.N())
	upper := fluxBound(m, rng) * 1.5
	m.Graph.SkipBisectionDraws(2, rng) // the historical UpperBounds(m, 2, rng)
	if upper < 2 {
		upper = 2
	}
	return eng.SaturationRateSharded(dist, upper, ticks, iters, rng, shards)
}
