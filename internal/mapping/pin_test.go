package mapping

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// RecursiveBisection's assignments are part of every mapped emulation's
// result, so a refactor of the refinement loop must leave them exactly as
// they were. The digests below pin the assignment (and the rng state left
// behind) for a few guest/host pairs and seeds, recorded before the
// refinement loop hoisted its candidate scans.
func TestRecursiveBisectionAssignmentsPinned(t *testing.T) {
	cases := []struct {
		name        string
		guest, host func() *topology.Machine
		seed        int64
		want        string
	}{
		{"Mesh64/Ring8", func() *topology.Machine { return topology.Mesh(2, 8) }, func() *topology.Machine { return topology.Ring(8) }, 1, "e161699d43e53c26"},
		{"Mesh64/Ring8/seed9", func() *topology.Machine { return topology.Mesh(2, 8) }, func() *topology.Machine { return topology.Ring(8) }, 9, "07d0154c1e06300c"},
		{"DeBruijn64/Mesh16", func() *topology.Machine { return topology.DeBruijn(6) }, func() *topology.Machine { return topology.Mesh(2, 4) }, 2, "37b54d4a89c30ede"},
		{"Torus100/Mesh9", func() *topology.Machine { return topology.Torus(2, 10) }, func() *topology.Machine { return topology.Mesh(2, 3) }, 3, "556d20d04bc485fd"},
		{"ShuffleExchange128/Torus16", func() *topology.Machine { return topology.ShuffleExchange(7) }, func() *topology.Machine { return topology.Torus(2, 4) }, 4, "1029242c7525d86e"},
		{"DeBruijn256/Mesh64", func() *topology.Machine { return topology.DeBruijn(8) }, func() *topology.Machine { return topology.Mesh(2, 8) }, 5, "28b18cc07a841a8d"},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		assign := RecursiveBisection(c.guest(), c.host(), Options{}, rng)
		sum := sha256.Sum256([]byte(fmt.Sprintf("%v rng %d", assign, rng.Int63())))
		if got := hex.EncodeToString(sum[:8]); got != c.want {
			t.Errorf("%s: assignment digest %s, recorded %s", c.name, got, c.want)
		}
	}
}
