package routing

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// The sharding determinism contract (ISSUE acceptance): a sim partitioned
// across any number of shards — and under any partition shape — produces
// results bit-for-bit identical to the serial sim. These tests drive every
// Table 4 machine through instrumented open loops, with and without a
// fault schedule, and compare both the OpenLoopResult and the full
// snapshot JSON byte-for-byte.

var equivalenceFaultSpec = topology.MustParseFaultSpec("edges:0.15@t20,nodes:2@t40,heal@t60")

// shardedRun drives one instrumented open loop on a fresh engine at the
// given shard count and returns the result plus the snapshot JSON.
func shardedRun(t *testing.T, m *topology.Machine, shards int, faults bool) (OpenLoopResult, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(m, Greedy)
	e.Shards = shards
	dist := traffic.NewSymmetric(m.N())
	var res OpenLoopResult
	var snap Snapshot
	if faults {
		sched := equivalenceFaultSpec.Materialize(m, rng)
		res, snap = e.OpenLoopFaultsSnapshot(dist, 3, 80, rng, 8, sched, FaultOptions{})
	} else {
		res, snap = e.OpenLoopSnapshot(dist, 3, 80, rng, 8)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// ISSUE acceptance: the full equivalence matrix. For every Table 4
// machine, the serial explicit run is the reference; every shard count in
// {2, 4, 7}, every available representation (explicit CSR, and the
// implicit generator for hypercube/mesh/torus machines), with and without
// a fault schedule, must reproduce its OpenLoopResult and snapshot JSON
// byte-for-byte. Without faults, both representations of a pristine
// hypercube, mesh or torus run the same closed-form hop kernel and differ
// only in how a vertex's first edge id is found, so that comparison checks
// the edge numbering, not an independent implementation; the kernel itself
// is checked against the BFS-field CSR loop by
// TestClosedFormKernelMatchesBFS. Under faults the twins walk masked BFS
// fields over independent adjacencies (generator versus CSR), so there the
// agreement is the representation contract, not a tautology.
func TestShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range table4Machines(rng) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			reps := []*topology.Machine{m}
			if tw, ok := topology.ImplicitTwin(m); ok && tw != m {
				reps = append(reps, tw)
			}
			for _, faults := range []bool{false, true} {
				wantRes, wantSnap := shardedRun(t, m, 1, faults)
				if faults && wantRes.Dropped == 0 && wantRes.Retried == 0 {
					// Still a valid equivalence check, but flag machines
					// where the schedule had no effect at all.
					t.Logf("%s: fault schedule caused no drops/retries", m.Name)
				}
				for ri, rep := range reps {
					implicit := rep.Implicit != nil
					shardCounts := []int{2, 4, 7}
					if ri > 0 {
						// The implicit twin must also match at one shard.
						shardCounts = []int{1, 2, 4, 7}
					}
					for _, shards := range shardCounts {
						gotRes, gotSnap := shardedRun(t, rep, shards, faults)
						if gotRes != wantRes {
							t.Errorf("implicit=%v faults=%v shards=%d: OpenLoopResult diverged\nserial explicit: %+v\ngot:             %+v",
								implicit, faults, shards, wantRes, gotRes)
						}
						if !bytes.Equal(gotSnap, wantSnap) {
							t.Errorf("implicit=%v faults=%v shards=%d: snapshot JSON diverged from serial explicit",
								implicit, faults, shards)
						}
					}
				}
			}
		})
	}
}

// TestImplicitEquivalenceLargeSmoke drives a machine too big for the full
// matrix — an order-14 hypercube (16,384 vertices) — through one sharded
// implicit run against the serial explicit reference, and builds (without
// running) the million-vertex instances the implicit representation
// exists for.
func TestImplicitEquivalenceLargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large equivalence smoke skipped in -short mode")
	}
	m := topology.WeakHypercube(14)
	tw, ok := topology.ImplicitTwin(m)
	if !ok {
		t.Fatal("WeakHypercube(14) has no implicit twin")
	}
	wantRes, wantSnap := shardedRun(t, m, 1, false)
	gotRes, gotSnap := shardedRun(t, tw, 4, false)
	if gotRes != wantRes || !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("order-14 hypercube: implicit sharded run diverged from serial explicit\nwant %+v\ngot  %+v", wantRes, gotRes)
	}

	// The dim-20 hypercube and the 1024x1024 mesh exist only implicitly
	// (the explicit constructors cap out below these sizes). Run a few
	// ticks to prove the engine actually routes at this scale.
	for _, big := range []*topology.Machine{
		topology.ImplicitWeakHypercube(20),
		topology.ImplicitMesh(2, 1024),
	} {
		e := NewEngine(big, Greedy)
		s := e.NewSim(rand.New(rand.NewSource(9)))
		dist := traffic.NewSymmetric(big.N())
		s.InjectSampled(dist, 4096)
		for i := 0; i < 8; i++ {
			s.Step()
		}
		if s.Delivered()+s.InFlight() != s.Injected() {
			t.Errorf("%s: conservation broken: injected %d delivered %d inflight %d",
				big.Name, s.Injected(), s.Delivered(), s.InFlight())
		}
		s.Close()
	}
}

// The partition shape must be as irrelevant as the shard count: a BFS
// partition assigns completely different vertex sets to each worker than
// the contiguous default, and the results must still match serial bytes.
func TestShardedEquivalenceBFSPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	machines := []*topology.Machine{
		topology.Mesh(2, 6),
		topology.Butterfly(3),
		topology.Expander(24, 4, rng),
	}
	drive := func(s *Sim, m *topology.Machine) []byte {
		defer s.Close()
		s.EnableStats()
		dist := traffic.NewSymmetric(m.N())
		for tick := 0; tick < 60; tick++ {
			s.InjectSampled(dist, 3)
			s.Step()
		}
		snap := s.Snapshot(8)
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			eSerial := NewEngine(m, Greedy)
			want := drive(eSerial.NewSim(rand.New(rand.NewSource(5))), m)
			for _, k := range []int{2, 3, 5} {
				assign := topology.BFSPartition(m.Graph, k)
				ePart := NewEngine(m, Greedy)
				got := drive(ePart.NewPartitionedSim(rand.New(rand.NewSource(5)), assign), m)
				if !bytes.Equal(got, want) {
					t.Errorf("BFS partition k=%d diverged from serial", k)
				}
			}
			// Interleaved shards 0 and 2 with shard 1 empty: each non-empty
			// shard's owned ids span the whole machine.
			assign := make([]int, m.N())
			for v := range assign {
				assign[v] = 2 * (v % 2)
			}
			got := drive(NewEngine(m, Greedy).NewPartitionedSim(rand.New(rand.NewSource(5)), assign), m)
			if !bytes.Equal(got, want) {
				t.Errorf("interleaved partition with an empty shard diverged from serial")
			}
		})
	}
}

// ISSUE acceptance: the fault-free sharded steady state stays within the
// per-shard allocation budget (0.1 allocs per tick per shard). The phase
// barriers reuse long-lived workers and channels, mailboxes and touched
// lists reuse their backing arrays, and the per-(tick, vertex) randomness
// lives on the stack, so nothing in the tick loop allocates.
func TestShardedStepSteadyStateAllocs(t *testing.T) {
	for _, shards := range []int{2, 4} {
		m := topology.Mesh(2, 10)
		e := NewEngine(m, Greedy)
		rng := rand.New(rand.NewSource(3))
		s := e.NewShardedSim(rng, shards)
		defer s.Close()
		dist := traffic.NewSymmetric(m.N())
		s.Inject(traffic.Batch(dist, 16*m.N(), rng))
		for i := 0; i < 50; i++ {
			s.Step()
		}
		avg := testing.AllocsPerRun(100, func() { s.Step() })
		if budget := 0.1 * float64(shards); avg > budget {
			t.Errorf("sharded Step (k=%d) allocates %.2f objects/tick at steady state, budget %.1f", shards, avg, budget)
		}
	}
}

// kernelRun drives one instrumented open loop and one routed batch on a
// fresh engine for m and returns the open-loop result, its snapshot JSON
// and the batch stats. With bfs set, the engine's closed-form geometry is
// cleared first, so every hop goes through the BFS-field CSR loop.
func kernelRun(t *testing.T, m *topology.Machine, strategy Strategy, disc Discipline, shards int, bfs bool) (OpenLoopResult, []byte, Stats) {
	t.Helper()
	e := NewEngine(m, strategy)
	e.Discipline = disc
	if e.geom == nil {
		t.Fatalf("%s: no closed-form geometry", m.Name)
	}
	if bfs {
		e.geom = nil
	}
	dist := traffic.NewSymmetric(m.N())
	rng := rand.New(rand.NewSource(17))
	res, snap := e.OpenLoopSnapshotSharded(dist, 6, 80, rng, 8, shards)
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st := e.RouteSharded(traffic.Batch(dist, 4*m.N(), rng), rng, shards)
	return res, buf.Bytes(), st
}

// The closed-form hop kernels must make exactly the decisions of the
// BFS-field CSR loop they replace on explicit machines: same candidates in
// the same order, one reservoir draw per free downhill wire, same edge ids.
func TestClosedFormKernelMatchesBFS(t *testing.T) {
	machines := []*topology.Machine{
		topology.Mesh(2, 5),
		topology.Mesh(3, 3),
		topology.Torus(2, 4),
		topology.Torus(3, 3),
		topology.WeakHypercube(4),
		topology.StrongHypercube(5),
		topology.Mesh(9, 2), // above MaxImplicitDim: explicit only
	}
	for _, m := range machines {
		for _, strategy := range []Strategy{Greedy, Valiant} {
			for _, disc := range []Discipline{FIFO, FarthestFirst} {
				for _, shards := range []int{1, 3} {
					wantRes, wantSnap, wantSt := kernelRun(t, m, strategy, disc, shards, true)
					gotRes, gotSnap, gotSt := kernelRun(t, m, strategy, disc, shards, false)
					if gotRes != wantRes || !bytes.Equal(gotSnap, wantSnap) || gotSt != wantSt {
						t.Errorf("%s %v %v shards=%d: kernel diverged from the BFS-field loop (snapshots equal: %v)\nBFS:    %+v %+v\nkernel: %+v %+v",
							m.Name, strategy, disc, shards, bytes.Equal(gotSnap, wantSnap), wantRes, wantSt, gotRes, gotSt)
					}
				}
			}
		}
	}
}

// Grids above topology.MaxImplicitDim dimensions have no implicit twin,
// but their explicit engines still route on the closed forms: no BFS
// field is built (one per destination would cost N ints each), and the
// decisions match the BFS-field loop on a batch small enough for it.
func TestHighDimGridsStayClosedForm(t *testing.T) {
	for _, m := range []*topology.Machine{topology.Mesh(9, 2), topology.Torus(9, 3)} {
		dist := traffic.NewSymmetric(m.N())
		run := func(bfs bool) Stats {
			e := NewEngine(m, Greedy)
			if e.geom == nil {
				t.Fatalf("%s: no closed-form geometry", m.Name)
			}
			if bfs {
				e.geom = nil
			}
			rng := rand.New(rand.NewSource(23))
			st := e.RouteSharded(traffic.Batch(dist, 48, rng), rng, 2)
			if !bfs {
				for dst := range e.distPtrs {
					if e.distPtrs[dst].Load() != nil {
						t.Fatalf("%s: BFS field built for destination %d", m.Name, dst)
					}
				}
			}
			return st
		}
		if got, want := run(false), run(true); got != want {
			t.Errorf("%s: kernel diverged from the BFS-field loop\nBFS:    %+v\nkernel: %+v", m.Name, want, got)
		}
	}
}

// The analytic distance oracle must agree with BFS exactly on every
// machine it is installed for, and must never be installed on a machine
// whose graph no longer matches its geometry.
func TestAnalyticDistanceMatchesBFS(t *testing.T) {
	oracleMachines := []*topology.Machine{
		topology.WeakHypercube(4),
		topology.StrongHypercube(5),
		topology.Mesh(2, 5),
		topology.Mesh(3, 3),
		topology.Torus(2, 5),
		topology.Torus(3, 3),
		topology.Mesh(9, 2),
	}
	for _, m := range oracleMachines {
		e := NewEngine(m, Greedy)
		if e.geom == nil {
			t.Errorf("%s: no analytic distance oracle installed", m.Name)
			continue
		}
		n := m.Graph.N()
		for dst := 0; dst < n; dst++ {
			d := m.Graph.BFS(dst)
			for u := 0; u < n; u++ {
				if got := e.distance(u, dst); got != d[u] {
					t.Fatalf("%s: oracle(%d,%d) = %d, BFS says %d", m.Name, u, dst, got, d[u])
				}
			}
		}
	}
	// Degraded clones must fall back to BFS fields: the guards compare
	// edge counts against the pristine construction.
	rng := rand.New(rand.NewSource(2))
	degraded := topology.DeleteRandomEdges(topology.Mesh(2, 5), 0.2, rng)
	if e := NewEngine(degraded, Greedy); e.geom != nil {
		t.Errorf("%s: degraded machine received an analytic oracle", degraded.Name)
	}
	// Machines with hub vertices or non-processor vertices must not match.
	for _, m := range []*topology.Machine{topology.GlobalBus(8), topology.MeshOfTrees(2, 4)} {
		if e := NewEngine(m, Greedy); e.geom != nil {
			t.Errorf("%s: unexpected analytic oracle", m.Name)
		}
	}
}

// NewShardedSim clamps nonsense shard counts instead of crashing, and
// Close is idempotent while leaving counters readable.
func TestShardedSimLifecycle(t *testing.T) {
	m := topology.Mesh(2, 4)
	e := NewEngine(m, Greedy)
	s := e.NewShardedSim(rand.New(rand.NewSource(1)), 999)
	if got := s.ShardCount(); got != m.Graph.N() {
		t.Errorf("shard count %d, want clamp to %d vertices", got, m.Graph.N())
	}
	s.Inject([]traffic.Message{{Src: 0, Dst: 15}})
	for s.InFlight() > 0 {
		s.Step()
	}
	delivered := s.Delivered()
	s.Close()
	s.Close() // idempotent
	if s.Delivered() != delivered {
		t.Errorf("counters changed across Close")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Step after Close did not panic")
		}
	}()
	s.Step()
}

// BFSPartition must produce balanced, complete partitions, and on a ring
// its connected regions cut far fewer edges than a round-robin assignment
// would.
func TestBFSPartitionShape(t *testing.T) {
	m := topology.Ring(30)
	for _, k := range []int{1, 2, 3, 7} {
		assign := topology.BFSPartition(m.Graph, k)
		counts := make(map[int]int)
		for _, sh := range assign {
			counts[sh]++
		}
		if len(counts) != k {
			t.Fatalf("k=%d: %d regions", k, len(counts))
		}
		for sh, c := range counts {
			if c < 30/k || c > 30/k+1 {
				t.Errorf("k=%d: region %d has %d vertices", k, sh, c)
			}
		}
	}
	if cut := topology.PartitionCutEdges(m.Graph, topology.BFSPartition(m.Graph, 3)); cut != 3 {
		t.Errorf("ring cut by 3 BFS regions crosses %d edges, want 3", cut)
	}
}
