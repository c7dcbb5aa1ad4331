package multigraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// The map-BFS forms of the distance measures, as they were before the
// flat snapshot: the references the flat versions must reproduce.

func mapDiameter(g *Multigraph) (int, error) {
	diam := 0
	for u := 0; u < g.n; u++ {
		for v, d := range g.BFS(u) {
			if d == unreachable {
				return 0, fmt.Errorf("multigraph: vertex %d unreachable from %d", v, u)
			}
			diam = max(diam, d)
		}
	}
	return diam, nil
}

func mapDistanceSum(g *Multigraph, u int) (int64, error) {
	var total int64
	for v, d := range g.BFS(u) {
		if d == unreachable {
			return 0, fmt.Errorf("multigraph: vertex %d unreachable from %d", v, u)
		}
		total += int64(d)
	}
	return total, nil
}

func mapAverageDistance(g *Multigraph) (float64, error) {
	if g.n < 2 {
		return 0, fmt.Errorf("multigraph: average distance undefined for n=%d", g.n)
	}
	var total int64
	for u := 0; u < g.n; u++ {
		s, err := mapDistanceSum(g, u)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return float64(total) / float64(g.n) / float64(g.n-1), nil
}

func mapSampleAverageDistance(g *Multigraph, samples int, rng *rand.Rand) (float64, error) {
	if g.n < 2 {
		return 0, fmt.Errorf("multigraph: average distance undefined for n=%d", g.n)
	}
	if samples >= g.n {
		return mapAverageDistance(g)
	}
	samples = max(samples, 1)
	var total int64
	for s := 0; s < samples; s++ {
		sum, err := mapDistanceSum(g, rng.Intn(g.n))
		if err != nil {
			return 0, err
		}
		total += sum
	}
	return float64(total) / float64(samples) / float64(g.n-1), nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestFlatDistancesMatchMapBFS checks Diameter, AverageDistance and
// SampleAverageDistance against their map-BFS forms on random graphs,
// sparse ones (often disconnected, so the error text is compared too) and
// dense ones, including the rng state each leaves behind.
func TestFlatDistancesMatchMapBFS(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + gen.Intn(40)
		g := randomGraph(n, gen.Intn(3*n+1), gen)
		label := fmt.Sprintf("trial %d (%v)", trial, g)

		d, err := g.Diameter()
		wd, werr := mapDiameter(g)
		if d != wd || errText(err) != errText(werr) {
			t.Fatalf("%s: Diameter = %d, %q; map BFS %d, %q", label, d, errText(err), wd, errText(werr))
		}
		a, err := g.AverageDistance()
		wa, werr := mapAverageDistance(g)
		if a != wa || errText(err) != errText(werr) {
			t.Fatalf("%s: AverageDistance = %v, %q; map BFS %v, %q", label, a, errText(err), wa, errText(werr))
		}
		for _, samples := range []int{0, 1, 5, n - 1, n, 64} {
			seed := gen.Int63()
			rng, wrng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			s, err := g.SampleAverageDistance(samples, rng)
			ws, werr := mapSampleAverageDistance(g, samples, wrng)
			if s != ws || errText(err) != errText(werr) {
				t.Fatalf("%s samples %d: SampleAverageDistance = %v, %q; map BFS %v, %q", label, samples, s, errText(err), ws, errText(werr))
			}
			if rng.Int63() != wrng.Int63() {
				t.Fatalf("%s samples %d: rng state diverged", label, samples)
			}
		}
	}
}

// TestSkipBisectionDrawsMatchesEstimate checks that SkipBisectionDraws
// leaves rng exactly where EstimateBisection does, on both sides of the
// n <= 20 exact/heuristic boundary.
func TestSkipBisectionDrawsMatchesEstimate(t *testing.T) {
	graphs := []*Multigraph{path(2), cycle(20), grid(4, 5), path(21), grid(3, 7), grid(8, 8), complete(24)}
	for _, g := range graphs {
		for _, restarts := range []int{0, 1, 2, 4} {
			for _, seed := range []int64{1, 42} {
				est, skip := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				g.EstimateBisection(restarts, est)
				g.SkipBisectionDraws(restarts, skip)
				if a, b := est.Int63(), skip.Int63(); a != b {
					t.Errorf("%v restarts %d seed %d: rng after EstimateBisection %d, after SkipBisectionDraws %d", g, restarts, seed, a, b)
				}
			}
		}
	}
}
