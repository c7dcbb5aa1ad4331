package bandwidth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/measure"
	"repro/internal/topology"
)

// A degradation curve spends most of its time in the intact machine's
// saturation search, whose upper probes carry large backlogs — the regime
// the tick loop's shortcuts act in. The digests were recorded from the
// tick loop before those shortcuts existed; the curve must reproduce them
// at one and at three shards.
func TestFaultCurveDigestsMatchRecorded(t *testing.T) {
	cases := []struct {
		name string
		m    func() *topology.Machine
		want string
	}{
		{"Mesh16", func() *topology.Machine { return topology.Mesh(2, 4) },
			"8d77284858d8ee6b869fcaa1d2a8113dd4db56ce35e43cc1bdb772cc1a7d286d"},
		{"Butterfly3", func() *topology.Machine { return topology.Butterfly(3) },
			"b53df5bc97c45ba06e6871e45f55c7f088d35a5e031b84b5998eeb608b15efb4"},
		{"DeBruijn5", func() *topology.Machine { return topology.DeBruijn(5) },
			"1e511b050b162cec84a854ed27a272928f84498274893b3dd0b4595f13915a12"},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 3} {
			pts := MeasureBetaUnderFaultsSharded(c.m(), []float64{0, 0.1, 0.3}, 120, shards, measure.NewSeedPlan(61))
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", pts)))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("%s shards=%d: digest %s, recorded %s", c.name, shards, got, c.want)
			}
		}
	}
}
