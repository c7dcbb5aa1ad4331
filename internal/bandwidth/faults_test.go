package bandwidth

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/measure"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ISSUE satellite: MeasureBeta on a deliberately disconnected machine used
// to stall (the batch router panicked after its no-progress limit because
// cross-component pairs can never deliver). The component filter must make
// it terminate with a positive β over the deliverable traffic.
func TestMeasureBetaOnDisconnectedMachine(t *testing.T) {
	// Failing 4 of 16 mesh processors leaves isolated vertices: symmetric
	// traffic hits them with probability ~44% per message.
	rng := rand.New(rand.NewSource(51))
	m, failed := topology.DeleteRandomProcessors(topology.Mesh(2, 4), 4, rng)
	if len(failed) != 4 {
		t.Fatalf("failed %d processors, want 4", len(failed))
	}
	meas := MeasureBeta(m, traffic.NewSymmetric(m.N()), MeasureOptions{LoadFactors: []int{2, 4}, Trials: 1}, rng)
	if meas.Beta <= 0 {
		t.Fatalf("β = %v on the surviving component, want > 0", meas.Beta)
	}
	if meas.Dist != "symmetric[16]/connected" {
		t.Fatalf("distribution %q, want the /connected wrapper", meas.Dist)
	}
}

// The filter is the identity on connected machines: same name, same rng
// sequence, same measurement.
func TestDeliverableDistPassThrough(t *testing.T) {
	m := topology.Mesh(2, 4)
	dist := traffic.NewSymmetric(m.N())
	if got := deliverableDist(routing.NewEngine(m, routing.Greedy), dist); got != dist {
		t.Fatalf("connected machine was wrapped: %v", got.Name())
	}
	meas := MeasureBeta(m, dist, MeasureOptions{LoadFactors: []int{2}, Trials: 1}, rand.New(rand.NewSource(52)))
	if meas.Dist != "symmetric[16]" {
		t.Fatalf("distribution %q gained a suffix on a connected machine", meas.Dist)
	}
}

// connectedPairs only ever samples deliverable pairs.
func TestConnectedPairsSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m, _ := topology.DeleteRandomProcessors(topology.Mesh(2, 4), 5, rng)
	dist := deliverableDist(routing.NewEngine(m, routing.Greedy), traffic.NewSymmetric(m.N()))
	if dist.Name() != "symmetric[16]/connected" {
		t.Fatalf("name %q", dist.Name())
	}
	comps := m.Graph.Components()
	label := make([]int, m.Graph.N())
	for c, vs := range comps {
		for _, v := range vs {
			label[v] = c
		}
	}
	for i := 0; i < 500; i++ {
		msg := dist.Sample(rng)
		if label[msg.Src] != label[msg.Dst] {
			t.Fatalf("sampled cross-component pair %+v", msg)
		}
	}
}

// Degradation curves behave: a zero-fault point keeps its bandwidth, heavy
// faults cost measurable throughput on a butterfly, and the whole curve is
// deterministic in the plan (and invariant under point reordering).
func TestMeasureBetaUnderFaults(t *testing.T) {
	m := topology.Butterfly(3)
	plan := measure.NewSeedPlan(7)
	fracs := []float64{0, 0.3}
	pts := MeasureBetaUnderFaults(m, fracs, 240, plan)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	zero, heavy := pts[0], pts[1]
	if zero.Dropped != 0 || zero.Retried != 0 {
		t.Fatalf("zero-fault point dropped %d retried %d", zero.Dropped, zero.Retried)
	}
	if zero.BetaIntact <= 0 || zero.BetaDegraded <= 0 {
		t.Fatalf("zero-fault windows %v/%v", zero.BetaIntact, zero.BetaDegraded)
	}
	if r := zero.Retention(); r < 0.7 {
		t.Fatalf("zero-fault retention %v, want near 1", r)
	}
	if heavy.BetaIntact <= 0 {
		t.Fatalf("heavy point pre-fault window %v", heavy.BetaIntact)
	}
	// Killing 30% of a butterfly's wires must cost bandwidth.
	if heavy.Retention() >= 1 {
		t.Fatalf("30%% wire faults retained full bandwidth: %+v", heavy)
	}
	if heavy.Delivered+heavy.Dropped > heavy.Injected {
		t.Fatalf("ledger overflow: %+v", heavy)
	}
	// Same plan, reversed fracs: the same two points.
	rev := MeasureBetaUnderFaults(m, []float64{0.3, 0}, 240, plan)
	if rev[1] != zero || rev[0] != heavy {
		t.Fatalf("curve depends on frac ordering:\n%+v\n%+v", pts, rev)
	}
}

func TestMeasureBetaUnderFaultsTooFewTicksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MeasureBetaUnderFaults(topology.Ring(8), []float64{0.1}, 10, measure.NewSeedPlan(1))
}

// deliverableDistUncached is deliverableDist as it was before the engine
// cached component labels: Graph.Components on every call. It stays here
// as the reference the cached path must agree with.
func deliverableDistUncached(m *topology.Machine, dist traffic.Distribution) traffic.Distribution {
	if m.Graph == nil {
		return dist
	}
	comp := make([]int32, m.Graph.N())
	for label, vs := range m.Graph.Components() {
		for _, v := range vs {
			comp[v] = int32(label)
		}
	}
	for v := 1; v < m.N(); v++ {
		if comp[v] != comp[0] {
			return &connectedPairs{inner: dist, comp: comp}
		}
	}
	return dist
}

// The engine's cached component labels give the same filtered traffic,
// the same measurement and the same rng state as the per-call
// Graph.Components path, on cold and warm engines; connected machines
// keep the unwrapped distribution and so their draw sequence.
func TestDeliverableDistCachedMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	nodes, _ := topology.DeleteRandomProcessors(topology.Mesh(2, 6), 9, rng)
	edges := topology.DeleteRandomEdges(topology.Torus(2, 6), 0.55, rng)
	for _, m := range []*topology.Machine{nodes, edges} {
		if m.Graph.Connected() {
			t.Fatalf("%s: degraded machine is still connected; pick another seed", m.Name)
		}
		dist := traffic.NewSymmetric(m.N())
		eng := routing.NewEngine(m, routing.Greedy)
		for pass := 0; pass < 2; pass++ { // cold, then warm labels
			got, want := deliverableDist(eng, dist), deliverableDistUncached(m, dist)
			if got.Name() != want.Name() {
				t.Fatalf("%s: name %q, uncached %q", m.Name, got.Name(), want.Name())
			}
			r1, r2 := rand.New(rand.NewSource(55)), rand.New(rand.NewSource(55))
			for i := 0; i < 300; i++ {
				if a, b := got.Sample(r1), want.Sample(r2); a != b {
					t.Fatalf("%s pass %d: sample %d is %+v, uncached %+v", m.Name, pass, i, a, b)
				}
			}
			if r1.Int63() != r2.Int63() {
				t.Fatalf("%s pass %d: rng state diverged", m.Name, pass)
			}
		}
		opts := MeasureOptions{LoadFactors: []int{2, 3}, Trials: 2}
		r1, r2 := rand.New(rand.NewSource(56)), rand.New(rand.NewSource(56))
		cold := MeasureBetaOn(routing.NewEngine(m, routing.Greedy), dist, opts, r1)
		warm := MeasureBetaOn(eng, dist, opts, r2)
		if cold.Beta != warm.Beta || cold.Dist != warm.Dist || fmt.Sprint(cold.RateByLoad) != fmt.Sprint(warm.RateByLoad) {
			t.Fatalf("%s: warm-engine measurement %+v, cold %+v", m.Name, warm, cold)
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("%s: rng state diverged between cold and warm measurements", m.Name)
		}
	}
	for _, m := range []*topology.Machine{topology.Mesh(2, 4), topology.Butterfly(3), topology.ImplicitMesh(2, 4)} {
		dist := traffic.NewSymmetric(m.N())
		if got := deliverableDist(routing.NewEngine(m, routing.Greedy), dist); got != dist {
			t.Fatalf("%s: connected machine was wrapped as %q", m.Name, got.Name())
		}
	}
}
