package bandwidth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// steadyReference is SteadyStateBetaOn as it was before it stopped
// computing the bisection estimate: the full UpperBounds call, whose Flux
// caps the saturation search.
func steadyReference(m *topology.Machine, ticks, iters, shards int, rng *rand.Rand) float64 {
	upper := UpperBounds(m, 2, rng).Flux * 1.5
	if upper < 2 {
		upper = 2
	}
	eng := routing.NewEngine(m, routing.Greedy)
	return eng.SaturationRateSharded(traffic.NewSymmetric(m.N()), upper, ticks, iters, rng, shards)
}

// TestSteadyStateBetaMatchesUpperBoundsPath pins the flux-only path to the
// historical one byte for byte — the result and the rng state after it —
// on both sides of EstimateBisection's n <= 20 exact/heuristic boundary.
func TestSteadyStateBetaMatchesUpperBoundsPath(t *testing.T) {
	cases := []struct {
		m            *topology.Machine
		ticks, iters int
	}{
		{topology.Mesh(2, 4), 200, 8},
		{topology.WeakHypercube(4), 200, 8},
		{topology.Mesh(1, 20), 200, 8},
		{topology.Mesh(1, 21), 200, 8},
		{topology.Mesh(2, 16), 120, 5},
		{topology.Butterfly(3), 200, 8},
		{topology.DeBruijn(5), 200, 8},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 7, 901} {
			for _, shards := range []int{1, 2} {
				want, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				ref := steadyReference(c.m, c.ticks, c.iters, shards, want)
				eng := routing.NewEngine(c.m, routing.Greedy)
				got := SteadyStateBetaOn(eng, c.ticks, c.iters, shards, wantRng)
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Errorf("%s seed %d shards %d: steady β %v, UpperBounds path %v", c.m.Name, seed, shards, got, ref)
				}
				if a, b := wantRng.Int63(), want.Int63(); a != b {
					t.Errorf("%s seed %d shards %d: rng diverged after the run (%d vs %d)", c.m.Name, seed, shards, a, b)
				}
			}
		}
	}
}
