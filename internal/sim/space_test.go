package sim

import (
	mathrand "math/rand"
	"testing"

	"racesim/internal/core"
	"racesim/internal/irace"
)

// TestRandomAssignmentsAlwaysValid samples many random full assignments
// and checks Apply yields a runnable configuration for each: the tuner
// must never be able to construct an invalid model from the space.
func TestRandomAssignmentsAlwaysValid(t *testing.T) {
	for _, kind := range []core.Kind{core.InOrder, core.OutOfOrder} {
		space, err := Space(kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		base := PublicA53()
		if kind == core.OutOfOrder {
			base = PublicA72()
		}
		rng := newTestRand(99)
		for i := 0; i < 200; i++ {
			a := irace.SampleUniform(space, rng)
			cfg, err := Apply(base, a)
			if err != nil {
				t.Fatalf("%s: random assignment invalid: %v\n%v", kind, err, a)
			}
			if err := core.Config(cfg).Validate(); err != nil {
				t.Fatalf("%s: sampled configuration invalid: %v", kind, err)
			}
		}
	}
}

// newTestRand avoids importing math/rand at every call site.
func newTestRand(seed int64) *mathrand.Rand { return mathrand.New(mathrand.NewSource(seed)) }
