package topology

import (
	"math/rand"
	"reflect"
	"testing"
)

// twinPair couples an implicit machine with its explicit ground truth.
type twinPair struct {
	imp *Machine
	exp *Machine
}

// randomTwinPairs draws a batch of small randomized instances from every
// implicit family, paired with the explicit constructors as ground truth.
func randomTwinPairs(rng *rand.Rand) []twinPair {
	var out []twinPair
	for i := 0; i < 4; i++ {
		order := 1 + rng.Intn(6)
		out = append(out, twinPair{ImplicitWeakHypercube(order), WeakHypercube(order)})
		dim := 1 + rng.Intn(3)
		side := 2 + rng.Intn(4)
		out = append(out, twinPair{ImplicitMesh(dim, side), Mesh(dim, side)})
		side = 3 + rng.Intn(3)
		out = append(out, twinPair{ImplicitTorus(dim, side), Torus(dim, side)})
	}
	return out
}

func TestImplicitNeighborsMatchExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, pair := range randomTwinPairs(rng) {
		im, g := pair.imp.Implicit, pair.exp.Graph
		if pair.imp.Name != pair.exp.Name {
			t.Fatalf("twin names differ: %s vs %s", pair.imp.Name, pair.exp.Name)
		}
		if im.N() != g.N() {
			t.Fatalf("%s: implicit N=%d, explicit N=%d", pair.imp.Name, im.N(), g.N())
		}
		for u := 0; u < g.N(); u++ {
			want := g.Neighbors(u) // sorted ascending
			var got []int
			lastSlot := -1
			im.VisitNeighbors(u, func(slot, v int) {
				if slot != lastSlot+1 {
					t.Fatalf("%s: vertex %d slots not consecutive: %d after %d", pair.imp.Name, u, slot, lastSlot)
				}
				lastSlot = slot
				got = append(got, v)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: vertex %d neighbours %v, want %v", pair.imp.Name, u, got, want)
			}
			if d := im.Degree(u); d != len(want) {
				t.Fatalf("%s: vertex %d Degree=%d, want %d", pair.imp.Name, u, d, len(want))
			}
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("%s: vertex %d neighbours not strictly ascending: %v", pair.imp.Name, u, got)
				}
			}
		}
	}
}

func TestImplicitNeighborSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, pair := range randomTwinPairs(rng) {
		im := pair.imp.Implicit
		for _, u := range []int{0, im.N() / 2, im.N() - 1} {
			deg := im.Degree(u)
			seen := make(map[int]bool)
			for slot := 0; slot < deg; slot++ {
				v := im.Neighbor(u, slot)
				if v < 0 || v >= im.N() || v == u || seen[v] {
					t.Fatalf("%s: Neighbor(%d, %d) = %d invalid", pair.imp.Name, u, slot, v)
				}
				seen[v] = true
			}
			if v := im.Neighbor(u, deg); v != -1 {
				t.Fatalf("%s: Neighbor(%d, %d) past degree = %d, want -1", pair.imp.Name, u, deg, v)
			}
		}
	}
}

func TestImplicitDistanceMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, pair := range randomTwinPairs(rng) {
		im, g := pair.imp.Implicit, pair.exp.Graph
		// Every distance from a handful of random roots against BFS truth.
		for i := 0; i < 3; i++ {
			src := rng.Intn(g.N())
			d := g.BFS(src)
			for v := 0; v < g.N(); v++ {
				if got := im.Distance(src, v); got != d[v] {
					t.Fatalf("%s: Distance(%d, %d) = %d, BFS says %d", pair.imp.Name, src, v, got, d[v])
				}
			}
		}
	}
}

func TestImplicitEdgesMatchExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, pair := range randomTwinPairs(rng) {
		got := pair.imp.Implicit.Edges()
		want := pair.exp.Graph.Edges()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: implicit edge list diverges from explicit (lens %d vs %d)", pair.imp.Name, len(got), len(want))
		}
		if e := pair.imp.Implicit.E(); e != int64(len(want)) || e != pair.exp.Graph.E() {
			t.Fatalf("%s: E() = %d, want %d", pair.imp.Name, e, len(want))
		}
		// EdgeList is representation-neutral, so fault materialization draws
		// identical victims on either twin.
		if !reflect.DeepEqual(pair.imp.EdgeList(), pair.exp.EdgeList()) {
			t.Fatalf("%s: Machine.EdgeList diverges across representations", pair.imp.Name)
		}
	}
}

func TestImplicitCapsMatchExplicit(t *testing.T) {
	imp, exp := ImplicitWeakHypercube(4), WeakHypercube(4)
	for v := 0; v < exp.Graph.N(); v++ {
		if imp.Cap(v) != exp.Cap(v) {
			t.Fatalf("WeakHypercube cap of %d: implicit %d, explicit %d", v, imp.Cap(v), exp.Cap(v))
		}
	}
	if ImplicitMesh(2, 3).Cap(0) != -1 {
		t.Fatal("implicit mesh should be uncapacitated")
	}
}

func TestImplicitTwinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, pair := range randomTwinPairs(rng) {
		tw, ok := ImplicitTwin(pair.exp)
		if !ok {
			t.Fatalf("%s: explicit machine has no implicit twin", pair.exp.Name)
		}
		if tw.Name != pair.exp.Name || tw.Vertices() != pair.exp.Vertices() || tw.EdgeCount() != pair.exp.EdgeCount() {
			t.Fatalf("%s: twin mismatch: %s", pair.exp.Name, tw)
		}
		if again, ok := ImplicitTwin(tw); !ok || again != tw {
			t.Fatalf("%s: implicit machine should twin to itself", tw.Name)
		}
		mat := pair.imp.Materialize()
		if mat.Name != pair.exp.Name || !reflect.DeepEqual(mat.Graph.Edges(), pair.exp.Graph.Edges()) {
			t.Fatalf("%s: Materialize diverges from the explicit constructor", pair.imp.Name)
		}
	}
	// The strong hypercube shares the family but is uncapacitated; treating
	// it as a weak twin would change results.
	if _, ok := ImplicitTwin(StrongHypercube(4)); ok {
		t.Fatal("StrongHypercube must not twin to the weak implicit hypercube")
	}
}

// Generator matches every pristine hypercube, mesh and torus regardless
// of capacities and of MaxImplicitDim, and nothing else; ImplicitTwin
// stays limited to what the implicit constructors build.
func TestGeneratorCoversPristineGeometries(t *testing.T) {
	for _, c := range []struct {
		m    *Machine
		twin bool
	}{
		{WeakHypercube(5), true},
		{StrongHypercube(5), false},
		{Mesh(3, 4), true},
		{Torus(2, 5), true},
		{Mesh(9, 2), false},
		{Mesh(12, 2), false},
		{Torus(9, 3), false},
	} {
		im := c.m.Generator()
		if im == nil {
			t.Errorf("%s: no generator", c.m.Name)
			continue
		}
		if im.N() != c.m.Graph.N() || im.E() != c.m.Graph.E() {
			t.Errorf("%s: generator has %d vertices and %d edges, machine %d and %d",
				c.m.Name, im.N(), im.E(), c.m.Graph.N(), c.m.Graph.E())
		}
		for _, u := range []int{0, 1, c.m.Graph.N() / 3, c.m.Graph.N() - 1} {
			var got []int
			im.VisitNeighbors(u, func(_, v int) { got = append(got, v) })
			if want := c.m.Graph.Neighbors(u); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: neighbours of %d: generator %v, graph %v", c.m.Name, u, got, want)
			}
		}
		if _, ok := ImplicitTwin(c.m); ok != c.twin {
			t.Errorf("%s: ImplicitTwin ok = %v, want %v", c.m.Name, ok, c.twin)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for _, m := range []*Machine{
		DeleteRandomEdges(Mesh(2, 5), 0.2, rng),
		GlobalBus(8),
		MeshOfTrees(2, 4),
	} {
		if m.Generator() != nil {
			t.Errorf("%s: unexpected generator", m.Name)
		}
	}
}

func TestBuildImplicitMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cases := []struct {
		f    Family
		dim  int
		size int
	}{
		{WeakHypercubeFamily, 0, 100},
		{WeakHypercubeFamily, 0, 1000},
		{MeshFamily, 2, 900},
		{MeshFamily, 3, 500},
		{TorusFamily, 2, 220},
	}
	for _, c := range cases {
		imp, err := BuildImplicit(c.f, c.dim, c.size)
		if err != nil {
			t.Fatal(err)
		}
		exp := Build(c.f, c.dim, c.size, rng)
		if imp.Name != exp.Name || imp.N() != exp.N() {
			t.Fatalf("BuildImplicit(%v, %d, %d) = %s, Build = %s", c.f, c.dim, c.size, imp.Name, exp.Name)
		}
	}
	if _, err := BuildImplicit(TreeFamily, 0, 64); err == nil {
		t.Fatal("BuildImplicit should reject families without a generator")
	}
}

// TestImplicitMillionVertexBuilds is the memory-scaling claim: a dim-20
// hypercube (1,048,576 vertices, 10.5M edges) and a 1024x1024 mesh build
// instantly because no edge list is materialized.
func TestImplicitMillionVertexBuilds(t *testing.T) {
	h := ImplicitWeakHypercube(20)
	if h.N() != 1<<20 || h.EdgeCount() != int64(1<<20)*20/2 {
		t.Fatalf("dim-20 hypercube: n=%d e=%d", h.N(), h.EdgeCount())
	}
	if d := h.Implicit.Distance(0, 1<<20-1); d != 20 {
		t.Fatalf("antipodal distance %d, want 20", d)
	}
	m := ImplicitMesh(2, 1024)
	if m.N() != 1024*1024 || m.EdgeCount() != int64(2*1024*1023) {
		t.Fatalf("1024x1024 mesh: n=%d e=%d", m.N(), m.EdgeCount())
	}
	if d := m.Implicit.Distance(0, m.N()-1); d != 2*1023 {
		t.Fatalf("corner-to-corner distance %d, want %d", d, 2*1023)
	}
	if deg := m.Implicit.Degree(0); deg != 2 {
		t.Fatalf("mesh corner degree %d, want 2", deg)
	}
}
