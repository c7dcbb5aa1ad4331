package routing

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// The tick loop's shortcuts (the failed-target memo, the capacity exit,
// the hoisted per-tick stream root) must change no decision. These digests
// were recorded from the tick loop before those shortcuts existed; every
// case runs at one and at three shards and must reproduce the recorded
// sha256 of its open-loop result, snapshot JSON, batch-routing stats and
// the rng state left behind. The open-loop rates sit well above
// saturation, so every queue carries a backlog and most hop requests find
// their wires full — the regime the shortcuts act in.
func TestTickLoopDigestsMatchRecorded(t *testing.T) {
	heal := topology.MustParseFaultSpec("edges:0.2@t15,nodes:2@t30,heal@t50")
	cases := []struct {
		name     string
		m        func() *topology.Machine
		strategy Strategy
		disc     Discipline
		rate     float64
		faults   bool
		want     string
	}{
		{"Mesh", func() *topology.Machine { return topology.Mesh(2, 8) }, Greedy, FIFO, 40, false,
			"ef59cd6b8e134a27ddbfcc8fd090424f60d7269d995124b66852e204c50bc161"},
		{"Torus", func() *topology.Machine { return topology.Torus(2, 8) }, Greedy, FIFO, 60, false,
			"41871eb722110b78d75cffd66205ceb369a714f67423fe0bf63270ac4c70e59a"},
		{"WeakHypercube", func() *topology.Machine { return topology.WeakHypercube(6) }, Greedy, FIFO, 40, false,
			"d94142657414c829d8ffe6bfa798faa0f18882761ee2ef63847ba6e07f462810"},
		{"WeakHypercubeImplicit", func() *topology.Machine { return topology.ImplicitWeakHypercube(6) }, Greedy, FIFO, 40, false,
			"d94142657414c829d8ffe6bfa798faa0f18882761ee2ef63847ba6e07f462810"},
		{"MeshImplicit3D", func() *topology.Machine { return topology.ImplicitMesh(3, 4) }, Greedy, FIFO, 40, false,
			"1da89b2ea09bba83b3aa0a4e8bfa6002153f6bfbf30dcb8dc2082d338defce47"},
		{"Butterfly", func() *topology.Machine { return topology.Butterfly(4) }, Greedy, FIFO, 40, false,
			"b15bd5f714aa1356bcf82a0c22f4da1f4ead5b820861c3c538caa909935f6496"},
		{"DeBruijn", func() *topology.Machine { return topology.DeBruijn(6) }, Greedy, FIFO, 40, false,
			"a55c7357eec8a8a6eec48c795ccee457a8fff327576cb62f1a97e38b941c6830"},
		{"GlobalBus", func() *topology.Machine { return topology.GlobalBus(16) }, Greedy, FIFO, 4, false,
			"095c3c8e1e9ab2a14a2f936b1c99169f9ed9c053c64e3deab85fff412be5b3b9"},
		{"MeshFarthestFirst", func() *topology.Machine { return topology.Mesh(2, 8) }, Greedy, FarthestFirst, 40, false,
			"3bb53255563d095355917b06acca0588f8fb3b37bb42624aa9322a9dc4ab8a09"},
		{"TorusValiant", func() *topology.Machine { return topology.Torus(2, 8) }, Valiant, FIFO, 40, false,
			"4ea6a8343213278a367c7b3e8ee915017c619b4ed8e7bbd035ab7093bd4f1199"},
		{"DeBruijnValiantFarthestFirst", func() *topology.Machine { return topology.DeBruijn(6) }, Valiant, FarthestFirst, 30, false,
			"a5062e78ef62b6482916e181ac1383f1df243e5a844144555ce12868c5b02568"},
		{"MeshFaultsHeal", func() *topology.Machine { return topology.Mesh(2, 8) }, Greedy, FIFO, 40, true,
			"a2f240011c4c796964da94108e9abc4ea9e98107277a6692ca8ace65f0f9884f"},
		{"WeakHypercubeImplicitFaultsHeal", func() *topology.Machine { return topology.ImplicitWeakHypercube(6) }, Greedy, FIFO, 40, true,
			"c4e4c4b06f857db1308d80bdbf18d2b53f7874faad22346be0e76801022dff9c"},
		{"GlobalBusFaultsHeal", func() *topology.Machine { return topology.GlobalBus(16) }, Valiant, FIFO, 4, true,
			"deeac05ecf8a32dec9ba44d4b4d7383b3a67e4a4d6423b39116c65b5f3442e2d"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, shards := range []int{1, 3} {
				got := tickLoopDigest(t, c.m(), c.strategy, c.disc, c.rate, c.faults, heal, shards)
				if got != c.want {
					t.Errorf("shards=%d: digest %s, recorded %s", shards, got, c.want)
				}
			}
		})
	}
}

// tickLoopDigest runs one instrumented open loop (armed with the fault
// plan when faults is set) and, on fault-free runs, one routed batch on a
// fresh engine, and hashes everything they report plus the next rng draw.
func tickLoopDigest(t *testing.T, m *topology.Machine, strategy Strategy, disc Discipline, rate float64, faults bool, plan topology.FaultPlan, shards int) string {
	t.Helper()
	e := NewEngine(m, strategy)
	e.Discipline = disc
	dist := traffic.NewSymmetric(m.N())
	rng := rand.New(rand.NewSource(29))
	var res OpenLoopResult
	var snap Snapshot
	if faults {
		sched := plan.Materialize(m, rng)
		res, snap = e.OpenLoopFaultsSnapshotSharded(dist, rate, 90, rng, 8, sched, FaultOptions{}, shards)
	} else {
		res, snap = e.OpenLoopSnapshotSharded(dist, rate, 90, rng, 8, shards)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", res)
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	if !faults {
		st := e.RouteSharded(traffic.Batch(dist, 8*m.N(), rng), rng, shards)
		fmt.Fprintf(h, "%+v\n", st)
	}
	fmt.Fprintf(h, "rng %d\n", rng.Int63())
	return hex.EncodeToString(h.Sum(nil))
}
