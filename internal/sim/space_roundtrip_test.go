package sim

import (
	"slices"
	"testing"

	"racesim/internal/core"
	"racesim/internal/irace"
)

// A tunable names one Config field: Set writes it, Get reads it. These
// tests pin that contract against the type itself (the reflect walk of
// fields_test.go): setting any candidate value writes that field and no
// other, reads back as written and leaves the preset a valid model, for
// every parameter and every value in the space, on both core kinds.
func roundTripCases(t *testing.T) []struct {
	name string
	kind core.Kind
	base Config
} {
	t.Helper()
	return []struct {
		name string
		kind core.Kind
		base Config
	}{
		{"inorder", core.InOrder, PublicA53()},
		{"ooo", core.OutOfOrder, PublicA72()},
	}
}

func TestParamGetSetRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range Params(tc.kind) {
				field := setField(t, &d, tc.base)
				for _, v := range d.Values {
					cfg := tc.base
					if err := d.Set(&cfg, v); err != nil {
						t.Errorf("param %s: Set(%q): %v", d.Name, v, err)
						continue
					}
					if got := d.Get(&cfg); got != v {
						t.Errorf("param %s: Set(%q) reads back %q — Get/Set drift", d.Name, v, got)
					}
					// No single listed value makes an invalid model.
					if err := core.Config(cfg).Validate(); err != nil {
						t.Errorf("param %s: Set(%q): invalid model: %v", d.Name, v, err)
					}
					// Set writes its field alone: the preset's own value
					// changes no leaf, any other changes exactly that one.
					want := []string{field}
					if d.Get(&tc.base) == v {
						want = nil
					}
					if got := changedFields(&tc.base, &cfg); !slices.Equal(got, want) {
						t.Errorf("param %s: Set(%q) changes the leaves %v, want %v", d.Name, v, got, want)
					}
				}
				// A value outside the candidate list must be rejected, not
				// silently coerced.
				cfg := tc.base
				if err := d.Set(&cfg, "definitely-not-a-value"); err == nil {
					t.Errorf("param %s: accepted an out-of-space value", d.Name)
				}
			}
		})
	}
}

func TestExtractApplyRoundTripOverSpace(t *testing.T) {
	for _, tc := range roundTripCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			defs := Params(tc.kind)
			space, err := Space(tc.kind, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(space.Params), len(defs); got != want {
				t.Fatalf("Space has %d params, Params has %d", got, want)
			}

			// Corner assignments exercise every parameter simultaneously:
			// all-first, all-last and all-middle candidate values. These are
			// in-space configurations, exactly what the irace sampler feeds
			// through Apply during a race, so they must validate and survive
			// the Extract round trip unchanged.
			picks := map[string]func(vs []string) string{
				"first":  func(vs []string) string { return vs[0] },
				"last":   func(vs []string) string { return vs[len(vs)-1] },
				"middle": func(vs []string) string { return vs[len(vs)/2] },
			}
			for pname, pick := range picks {
				a := irace.Assignment{}
				for _, d := range defs {
					a[d.Name] = pick(d.Values)
				}
				cfg, err := Apply(tc.base, a)
				if err != nil {
					t.Fatalf("%s corner: Apply: %v", pname, err)
				}
				got := Extract(cfg)
				if len(got) != len(a) {
					t.Fatalf("%s corner: Extract returned %d params, want %d", pname, len(got), len(a))
				}
				for name, want := range a {
					if got[name] != want {
						t.Errorf("%s corner: param %s: applied %q, extracted %q", pname, name, want, got[name])
					}
				}
			}

			// Extract of an untouched base must itself round-trip: applying
			// it back is the identity, on the whole configuration and on
			// every tunable parameter.
			base := Extract(tc.base)
			cfg, err := Apply(tc.base, base)
			if err != nil {
				t.Fatalf("identity Apply: %v", err)
			}
			if cfg != tc.base {
				t.Errorf("Apply(base, Extract(base)) != base:\n got  %+v\n want %+v", cfg, tc.base)
			}
			again := Extract(cfg)
			for name, want := range base {
				if again[name] != want {
					t.Errorf("identity: param %s drifted %q -> %q", name, want, again[name])
				}
			}
		})
	}
}
