// Package topology constructs the fixed-connection network machines the
// paper compares: arrays, trees, X-trees, buses, parallel prefix networks,
// meshes, tori, X-grids, meshes of trees, multigrids, pyramids, butterflies,
// cube-connected cycles, shuffle-exchanges, de Bruijn graphs, hypercubes,
// multibutterflies, and expanders.
//
// A Machine is a multigraph plus the machine-level metadata the emulation
// machinery needs: which vertices are processors (as opposed to internal
// switches), per-vertex forwarding capacities (for shared-bus machines and
// the "weak" one-port hypercube), and the structural parameters (dimension,
// side length, order) that the analytic bandwidth formulas are written in.
package topology

import (
	"fmt"
	"unicode/utf8"

	"repro/internal/multigraph"
)

// Family identifies a machine family from the paper.
type Family int

const (
	LinearArrayFamily Family = iota
	RingFamily
	GlobalBusFamily
	TreeFamily
	WeakPPNFamily
	XTreeFamily
	MeshFamily
	TorusFamily
	XGridFamily
	MeshOfTreesFamily
	MultigridFamily
	PyramidFamily
	ButterflyFamily
	WrappedButterflyFamily
	CubeConnectedCyclesFamily
	ShuffleExchangeFamily
	DeBruijnFamily
	WeakHypercubeFamily
	MultibutterflyFamily
	ExpanderFamily
	numFamilies // sentinel for iteration
)

// Families returns every family in declaration order.
func Families() []Family {
	out := make([]Family, 0, int(numFamilies))
	for f := Family(0); f < numFamilies; f++ {
		out = append(out, f)
	}
	return out
}

// String returns the family's display name, with a ^k marker for
// dimension-parametrized families.
func (f Family) String() string {
	switch f {
	case LinearArrayFamily:
		return "LinearArray"
	case RingFamily:
		return "Ring"
	case GlobalBusFamily:
		return "GlobalBus"
	case TreeFamily:
		return "Tree"
	case WeakPPNFamily:
		return "WeakPPN"
	case XTreeFamily:
		return "X-Tree"
	case MeshFamily:
		return "Mesh"
	case TorusFamily:
		return "Torus"
	case XGridFamily:
		return "X-Grid"
	case MeshOfTreesFamily:
		return "MeshOfTrees"
	case MultigridFamily:
		return "Multigrid"
	case PyramidFamily:
		return "Pyramid"
	case ButterflyFamily:
		return "Butterfly"
	case WrappedButterflyFamily:
		return "WrappedButterfly"
	case CubeConnectedCyclesFamily:
		return "CubeConnectedCycles"
	case ShuffleExchangeFamily:
		return "ShuffleExchange"
	case DeBruijnFamily:
		return "DeBruijn"
	case WeakHypercubeFamily:
		return "WeakHypercube"
	case MultibutterflyFamily:
		return "Multibutterfly"
	case ExpanderFamily:
		return "Expander"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Dimensioned reports whether the family takes a dimension parameter
// (Mesh^k, Torus^k, X-Grid^k, MeshOfTrees^k, Multigrid^k, Pyramid^k).
func (f Family) Dimensioned() bool {
	switch f {
	case MeshFamily, TorusFamily, XGridFamily, MeshOfTreesFamily, MultigridFamily, PyramidFamily:
		return true
	}
	return false
}

// Machine is a concrete network-machine instance. Exactly one of Graph and
// Implicit is non-nil: Graph is a materialized multigraph, Implicit is a
// generator that computes the same adjacency on demand (hypercube, mesh,
// and torus families only — see implicit.go). The two representations are
// interchangeable for routing: an implicit machine and its explicit twin
// have the same Name and produce byte-identical simulation results.
type Machine struct {
	Family Family
	Name   string
	Graph  *multigraph.Multigraph

	// Implicit generates the adjacency on the fly when Graph is nil, so
	// million-vertex machines build without materializing edge lists.
	Implicit *Implicit

	// Procs is the number of processor vertices. Processors occupy
	// indices 0..Procs-1; any further vertices are switching elements
	// (the global bus hub, weak-PPN combining nodes) that carry traffic
	// but neither originate nor absorb it.
	Procs int

	// Dim is the dimension parameter for dimensioned families, 0 otherwise.
	Dim int

	// Side is the per-dimension extent for mesh-like families, the order
	// (lg of row count) for hypercubic families, and 0 otherwise.
	Side int

	// VertexCap maps a vertex to its forwarding capacity in messages per
	// tick. Vertices not present are uncapacitated. The global-bus hub has
	// capacity 1; every weak-hypercube vertex has capacity 1 (one port per
	// step).
	VertexCap map[int]int64

	// UniformCap, when positive, caps every vertex at this forwarding
	// capacity — the implicit weak hypercube's all-ones VertexCap map
	// without the million map entries. VertexCap takes precedence.
	UniformCap int64
}

// N returns the number of processors (the machine size |M| the paper's
// formulas are written in).
func (m *Machine) N() int { return m.Procs }

// Vertices returns the total number of graph vertices including switches.
func (m *Machine) Vertices() int {
	if m.Graph == nil {
		return m.Implicit.N()
	}
	return m.Graph.N()
}

// EdgeCount returns the number of undirected wires, for either
// representation.
func (m *Machine) EdgeCount() int64 {
	if m.Graph == nil {
		return m.Implicit.E()
	}
	return m.Graph.E()
}

// EdgeList returns the undirected edge list sorted by (U, V), identical
// across representations: multigraph.Edges for explicit machines, the
// generated list for implicit ones. Fault materialization iterates it, so
// a fault plan drawn on an implicit machine matches its explicit twin.
func (m *Machine) EdgeList() []multigraph.Edge {
	if m.Graph == nil {
		return m.Implicit.Edges()
	}
	return m.Graph.Edges()
}

// IsProcessor reports whether vertex v is a processor.
func (m *Machine) IsProcessor(v int) bool { return v >= 0 && v < m.Procs }

// Cap returns the forwarding capacity of vertex v (messages forwarded per
// tick), or -1 for unlimited.
func (m *Machine) Cap(v int) int64 {
	if m.VertexCap != nil {
		if c, ok := m.VertexCap[v]; ok {
			return c
		}
		return -1
	}
	if m.UniformCap > 0 {
		return m.UniformCap
	}
	return -1
}

func (m *Machine) String() string {
	return fmt.Sprintf("%s{procs=%d, vertices=%d, E=%d}", m.Name, m.Procs, m.Vertices(), m.EdgeCount())
}

// validate panics if the machine breaks a structural invariant; generators
// call it before returning.
func (m *Machine) validate() *Machine {
	if m.Graph == nil {
		// Implicit machines are connected by construction; the generator
		// constructors validated their parameters already.
		if m.Implicit == nil || m.Procs != m.Implicit.N() {
			panic(fmt.Sprintf("topology: %s has procs=%d on an implicit generator of %d vertices", m.Name, m.Procs, m.Implicit.N()))
		}
		return m
	}
	if m.Procs < 1 || m.Procs > m.Graph.N() {
		panic(fmt.Sprintf("topology: %s has procs=%d, vertices=%d", m.Name, m.Procs, m.Graph.N()))
	}
	if m.Graph.N() > 1 && !m.Graph.Connected() {
		panic(fmt.Sprintf("topology: %s is disconnected", m.Name))
	}
	return m
}

// ParseFamily resolves a family by its display name, case-insensitively,
// accepting both "X-Tree" and "xtree" spellings.
func ParseFamily(name string) (Family, error) {
	var buf [64]byte
	if f, ok := familyByName[string(normFamilyName(buf[:0], name))]; ok {
		return f, nil
	}
	return 0, fmt.Errorf("topology: unknown family %q", name)
}

// familyByName maps every family's normalized display name to the
// family, built once.
var familyByName = func() map[string]Family {
	m := make(map[string]Family, int(numFamilies))
	for _, f := range Families() {
		m[string(normFamilyName(nil, f.String()))] = f
	}
	return m
}()

// normFamilyName appends name to dst with '-', '_' and ' ' dropped and
// ASCII letters lower-cased, rune by rune (invalid UTF-8 reads as
// U+FFFD).
func normFamilyName(dst []byte, name string) []byte {
	for _, r := range name {
		if r == '-' || r == '_' || r == ' ' {
			continue
		}
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}
