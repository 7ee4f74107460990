package sim_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/sim"
)

// TestParamTablesGolden pins both parameter tables, the search space the
// tuner races over: for each kind, one row per tunable in table order with
// its name, the Go field its Set writes (found by diffing a copy of the
// kind's preset, not through the plan), whether it is ordered, its values
// in sampling order, whether it is declared timing-only, the read-profile
// entry that bounds it (ParamDef.Reads) and its activation condition.
// Value order is sampling order and a condition decides the canonical
// form, so a row that moves moves every race and every cache key; the
// timing-only column decides which configurations share a decision tape,
// and the read column which a trace's simulations alias
// (TraceCanonical). Run with -update to re-pin on purpose.
func TestParamTablesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, kind := range []core.Kind{core.InOrder, core.OutOfOrder} {
		fields := sim.SetFields(t, kind)
		fmt.Fprintf(&got, "== %s\n", kind)
		for _, d := range sim.Params(kind) {
			order := "categorical"
			if d.Ordered {
				order = "ordered"
			}
			cond := "always"
			switch {
			case d.When == nil:
			case d.When.Parent == "":
				cond = "never"
			case d.When.Not:
				cond = fmt.Sprintf("if %s not in %s", d.When.Parent, strings.Join(d.When.Values, ","))
			default:
				cond = fmt.Sprintf("if %s in %s", d.When.Parent, strings.Join(d.When.Values, ","))
			}
			timing := "-"
			if d.TimingOnly {
				timing = "timing-only"
			}
			fmt.Fprintf(&got, "%s %s %s %s %s %s %s\n", d.Name, fields[d.Name], order, strings.Join(d.Values, ","), timing, d.Reads, cond)
		}
	}

	const golden = "testdata/params.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("a tunable moved (%s, first at line %d):\n got  %s\n want %s\n"+
				"it moves every tuning race and cache key; re-pin on purpose with -update", golden, i+1, g, w)
		}
	}
}

// TestParamSetContract pins what Set accepts and how it refuses: an int
// tunable takes any integer, listed or not (a configuration file or a
// perturbation baseline may hold one the tuner never offers); a bool only "true" or "false"; a
// categorical only a listed value. A refused value leaves the
// configuration as it was.
func TestParamSetContract(t *testing.T) {
	for _, kind := range []core.Kind{core.InOrder, core.OutOfOrder} {
		base := sim.PublicA53()
		if kind == core.OutOfOrder {
			base = sim.PublicA72()
		}
		fields := sim.SetFields(t, kind)
		for _, d := range sim.Params(kind) {
			var bad, want string
			switch k := sim.FieldAt(&base, fields[d.Name]).Kind(); k {
			case reflect.Int:
				bad, want = "x", fmt.Sprintf(`sim: %s: strconv.Atoi: parsing "x": invalid syntax`, d.Name)
				cfg := base
				if err := d.Set(&cfg, "12345"); err != nil {
					t.Errorf("%s/%s: Set(%q): %v", kind, d.Name, "12345", err)
				} else if v := sim.FieldAt(&cfg, fields[d.Name]).Int(); v != 12345 || d.Get(&cfg) != "12345" {
					t.Errorf("%s/%s: Set(%q) wrote %d, reads back %q", kind, d.Name, "12345", v, d.Get(&cfg))
				}
			case reflect.Bool:
				bad, want = "1", fmt.Sprintf(`sim: %s: bad bool "1"`, d.Name)
			case reflect.String:
				bad, want = "x", fmt.Sprintf(`sim: %s: bad value "x"`, d.Name)
			default:
				t.Fatalf("%s/%s: a tunable of kind %s", kind, d.Name, k)
			}
			cfg := base
			if err := d.Set(&cfg, bad); err == nil || err.Error() != want {
				t.Errorf("%s/%s: Set(%q) = %v, want %s", kind, d.Name, bad, err, want)
			}
			if cfg != base {
				t.Errorf("%s/%s: a refused Set(%q) changed the configuration", kind, d.Name, bad)
			}
		}
	}
}

// TestApplyTrueTunables: the A53 board's true values overlay its public
// preset exactly — every tunable field of the result equals the truth's.
// (The A72 board's spatial L2 prefetcher is no value the tuner offers, so
// its truth is refused.)
func TestApplyTrueTunables(t *testing.T) {
	truth := hw.TrueA53()
	cfg, err := sim.Apply(sim.PublicA53(), sim.Extract(truth))
	if err != nil {
		t.Fatalf("Apply(public, Extract(truth)): %v", err)
	}
	for name, path := range sim.SetFields(t, truth.Kind) {
		if got, want := sim.FieldAt(&cfg, path).Interface(), sim.FieldAt(&truth, path).Interface(); got != want {
			t.Errorf("%s (%s) = %v, the truth %v", name, path, got, want)
		}
	}
}
