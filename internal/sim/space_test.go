package sim

import (
	mathrand "math/rand"
	"testing"

	"racesim/internal/core"
	"racesim/internal/irace"
)

// TestEveryParamValueApplies exhaustively applies every candidate value of
// every tunable parameter to the matching preset and re-validates: no
// combination of a single parameter change may produce an invalid model,
// and Get must read back exactly what Set wrote.
func TestEveryParamValueApplies(t *testing.T) {
	cases := []struct {
		kind core.Kind
		base Config
	}{
		{core.InOrder, PublicA53()},
		{core.OutOfOrder, PublicA72()},
	}
	for _, c := range cases {
		for _, d := range Params(c.kind) {
			for _, v := range d.Values {
				cfg := c.base
				if err := d.Set(&cfg, v); err != nil {
					t.Errorf("%s/%s=%s: set failed: %v", c.kind, d.Name, v, err)
					continue
				}
				if got := d.Get(&cfg); got != v {
					t.Errorf("%s/%s: wrote %q, read %q", c.kind, d.Name, v, got)
				}
				if err := core.Config(cfg).Validate(); err != nil {
					t.Errorf("%s/%s=%s: invalid model: %v", c.kind, d.Name, v, err)
				}
			}
			// Setting garbage must fail and leave a copy untouched.
			cfg := c.base
			if err := d.Set(&cfg, "zzz-not-a-value"); err == nil && len(d.Values) > 0 {
				// Choice params reject unknown values; int/bool params
				// reject unparseable ones. "zzz" is neither.
				t.Errorf("%s/%s: garbage value accepted", c.kind, d.Name)
			}
		}
	}
}

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
