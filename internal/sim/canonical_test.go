package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/isa"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// canonicalTraces is the sample the canonical-form tests simulate: micro-
// benchmarks that stress the branch unit and each memory level, two Table
// II workloads, and aliasTrace.
func canonicalTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	out := []*trace.Trace{aliasTrace()}
	for _, name := range []string{"CS1", "CS3", "CCh", "CCm", "MC", "MD", "ML2", "STL2"} {
		b, ok := ubench.ByName(name)
		if !ok {
			t.Fatalf("no micro-benchmark %s", name)
		}
		tr, err := b.Trace(ubench.Options{Scale: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	for _, p := range workload.Profiles()[:2] {
		tr, err := workload.Generate(p, workload.Options{Events: 4000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// aliasTrace has more static branches than the smallest predictor tables
// hold — 4096 conditional branches of fixed, scattered direction, run four
// times, then 512 indirect branches of fixed target, run eight times — so that
// every table size the tuner offers moves its mispredictions. The suite's
// short traces touch too few branches for that.
func aliasTrace() *trace.Trace {
	var evs []trace.Event
	const cond, ind = 0x10000, 0x40000
	for r := 0; r < 4; r++ {
		for i := uint64(0); i < 4096; i++ {
			pc := cond + 4*i
			evs = append(evs, trace.Event{PC: pc, Word: isa.EncBCC(isa.CondNE, 1), Target: pc + 4, Taken: (i*2654435761)>>7&1 == 1})
		}
	}
	for r := 0; r < 8; r++ {
		for i := uint64(0); i < 512; i++ {
			pc := ind + 4*i
			// Scattered targets: the predictor hashes them into its index.
			tgt := 0x80000 + 4*((i*2654435761)>>5&0xfff)
			evs = append(evs, trace.Event{PC: pc, Word: isa.EncBR(isa.X(1)), Target: tgt, Taken: true})
		}
	}
	return trace.New("branch-alias", false, evs...)
}

// canonicalBases are configurations of both kinds: sampled from sim.Params
// over the public presets, and the two board truths (the A72's carries the
// spatial L2 prefetcher no tunable offers).
func canonicalBases(t *testing.T) []sim.Config {
	t.Helper()
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	bases := []sim.Config{p.A53.TrueConfig(), p.A72.TrueConfig()}
	rng := rand.New(rand.NewSource(7))
	for _, base := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
		space, err := sim.Space(base.Kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			cfg, err := sim.Apply(base, irace.SampleUniform(space, rng))
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, cfg)
		}
	}
	return bases
}

// settings returns base under every value of every condition's parent, so
// that each condition is seen both satisfied and not.
func settings(t *testing.T, base sim.Config) []sim.Config {
	t.Helper()
	defs := sim.Params(base.Kind)
	out := []sim.Config{base}
	seen := map[string]bool{}
	for _, d := range defs {
		if d.When == nil || d.When.Parent == "" || seen[d.When.Parent] {
			continue
		}
		seen[d.When.Parent] = true
		for _, p := range defs {
			if p.Name != d.When.Parent {
				continue
			}
			for _, v := range p.Values {
				cfg := base
				if err := p.Set(&cfg, v); err != nil {
					t.Fatal(err)
				}
				if core.Config(cfg).Validate() == nil && cfg != base {
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// moves returns every configuration one tunable away from cfg, split by
// whether cfg's models read that tunable, with the inactive moves' names.
func moves(t *testing.T, cfg sim.Config) (inactive, active []sim.Config, names []string) {
	t.Helper()
	for _, d := range sim.Params(cfg.Kind) {
		for _, v := range d.Values {
			moved, ok := moveTo(t, cfg, &d, v)
			if !ok {
				continue
			}
			if d.Active(&cfg) {
				active = append(active, moved)
			} else {
				inactive = append(inactive, moved)
				names = append(names, d.Name+"="+v)
			}
		}
	}
	return inactive, active, names
}

// runAll simulates every configuration on every trace, without a cache:
// out[j][i] is cfgs[i] on trs[j].
func runAll(t *testing.T, cfgs []sim.Config, trs []*trace.Trace) [][]core.Result {
	t.Helper()
	out := make([][]core.Result, len(trs))
	for j, tr := range trs {
		rs, err := sim.RunBatch(cfgs, tr.Decoded(cfgs[0].DecoderDepBug))
		if err != nil {
			t.Fatal(err)
		}
		out[j] = rs
	}
	return out
}

// TestCanonicalNeverChangesResult moves every tunable a configuration's
// models do not read (ParamDef.When) through all its values and requires
// results deep-equal to the unmoved configuration's on every sampled trace,
// with no cache in between. A condition that marks a read field inactive
// fails here (TestConditionsCanFail shows the sample can tell).
func TestCanonicalNeverChangesResult(t *testing.T) {
	trs := canonicalTraces(t)
	checked := 0
	for _, base := range canonicalBases(t) {
		for _, cfg := range settings(t, base) {
			inactive, _, names := moves(t, cfg)
			if len(inactive) == 0 {
				continue
			}
			rs := runAll(t, append([]sim.Config{cfg}, inactive...), trs)
			for i, name := range names {
				if sim.Canonical(cfg) != sim.Canonical(inactive[i]) {
					t.Errorf("%s: moving unread %s changed the canonical form", base.Name, name)
				}
				for j, tr := range trs {
					if !reflect.DeepEqual(rs[j][0], rs[j][i+1]) {
						t.Errorf("%s (%s): moving unread %s changed the result on %s", base.Name, cfg.Kind, name, tr.Name)
					}
				}
			}
			checked += len(inactive)
		}
	}
	if checked == 0 {
		t.Fatal("no inactive tunable was moved")
	}
}

// TestConditionsCanFail is the sample's power: every conditional tunable
// moves some result on the sampled traces under every parent value that
// activates it. Without it TestCanonicalNeverChangesResult would pass a
// condition that marks a read field inactive wherever the sample happens
// not to exercise that field.
func TestConditionsCanFail(t *testing.T) {
	trs := canonicalTraces(t)
	for _, base := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
		seen := map[string]bool{} // one check per parent value that activates d
		for _, cfg := range settings(t, base) {
			for _, d := range sim.Params(cfg.Kind) {
				if d.When == nil || !d.Active(&cfg) || seen[d.Name+" "+get(t, cfg, d.When.Parent)] {
					continue
				}
				seen[d.Name+" "+get(t, cfg, d.When.Parent)] = true
				var cfgs []sim.Config
				for _, v := range d.Values {
					c := cfg
					if err := d.Set(&c, v); err != nil {
						t.Fatal(err)
					}
					if core.Config(c).Validate() == nil {
						cfgs = append(cfgs, c)
					}
				}
				rs := runAll(t, cfgs, trs)
				moved := false
				for j := range trs {
					for i := range cfgs[1:] {
						moved = moved || !reflect.DeepEqual(rs[j][0], rs[j][i+1])
					}
				}
				if !moved {
					t.Errorf("%s: %s (active when %+v) moves no result on the sample with %s = %s",
						base.Name, d.Name, d.When, d.When.Parent, get(t, cfg, d.When.Parent))
				}
			}
		}
	}
}

func get(t *testing.T, cfg sim.Config, name string) string {
	t.Helper()
	for _, d := range sim.Params(cfg.Kind) {
		if d.Name == name {
			return d.Get(&cfg)
		}
	}
	t.Fatalf("no parameter %s", name)
	return ""
}

// TestFingerprintSeparatesActiveTunables: moving a tunable the models read
// changes the fingerprint; renaming a configuration or moving an unread
// tunable does not.
func TestFingerprintSeparatesActiveTunables(t *testing.T) {
	for _, base := range canonicalBases(t) {
		fp := base.Fingerprint()
		renamed := base
		renamed.Name = "renamed"
		if renamed.Fingerprint() != fp {
			t.Errorf("%s: renaming changed the fingerprint", base.Name)
		}
		if got := sim.Canonical(base).Fingerprint(); got != fp {
			t.Errorf("%s: the canonical form fingerprints %s, the config %s", base.Name, got, fp)
		}
		inactive, active, names := moves(t, base)
		for _, c := range active {
			if c.Fingerprint() == fp {
				t.Errorf("%s: an active move kept the fingerprint:\n%+v", base.Name, c)
			}
		}
		for i, c := range inactive {
			if c.Fingerprint() != fp {
				t.Errorf("%s: moving unread %s changed the fingerprint", base.Name, names[i])
			}
		}
	}
}
