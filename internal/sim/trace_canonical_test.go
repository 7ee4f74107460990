package sim_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"racesim/internal/core"
	"racesim/internal/irace"
	"racesim/internal/sim"
)

// boundedMoves returns every configuration one bounded tunable
// (ParamDef.Reads) away from cfg that is valid, with the moves' names.
func boundedMoves(cfg sim.Config) (out []sim.Config, names []string) {
	for _, d := range sim.Params(cfg.Kind) {
		if d.Reads == (sim.Read{}) {
			continue
		}
		for _, v := range d.Values {
			moved := cfg
			if d.Set(&moved, v) != nil || moved == cfg || core.Config(moved).Validate() != nil {
				continue
			}
			out, names = append(out, moved), append(names, d.Name+"="+v)
		}
	}
	return out, names
}

// TestTraceCanonicalNeverChangesResult moves every tunable a read-profile
// entry bounds through all its values, from the presets, their decoder
// variants, the boards' hidden configurations and configurations sampled
// from both tuning spaces, on cold micro-benchmarks and warm Table II
// workloads. Wherever the move keeps the configuration's TraceCanonical
// form on a trace, the moved configuration's result there must equal the
// reference simulator's for the unmoved one, and so must the reference's
// own for the moved one. Every entry must merge some move: a bound that
// never fires is not tested.
func TestTraceCanonicalNeverChangesResult(t *testing.T) {
	cfgs := sampledConfigs(t, 8, rand.New(rand.NewSource(37)))
	trs := referenceTraces(t)
	merged := map[string]int{}
	aliased, moves := 0, 0
	for _, tr := range trs {
		for _, cfg := range cfgs {
			p := sim.ProfileOf(tr.Decoded(cfg.DecoderDepBug))
			canon := sim.TraceCanonical(cfg, p)
			var want *core.Result
			moved, names := boundedMoves(cfg)
			for i, m := range moved {
				moves++
				if sim.TraceCanonical(m, p) != canon {
					continue
				}
				if want == nil {
					r := reference(t, cfg, tr)
					want = &r
				}
				aliased++
				merged[entryOf(cfg.Kind, names[i])]++
				got, err := m.Run(tr)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, *want) {
					t.Errorf("%s on %s: %s keeps the trace-canonical form but changes the result\n moved     %+v\n reference %+v", cfg.Name, tr.Name, names[i], got, *want)
				}
				if ref := reference(t, m, tr); !reflect.DeepEqual(ref, *want) {
					t.Errorf("%s on %s: %s keeps the trace-canonical form but changes the reference's result", cfg.Name, tr.Name, names[i])
				}
			}
		}
	}
	for _, kind := range []core.Kind{core.InOrder, core.OutOfOrder} {
		for _, d := range sim.Params(kind) {
			if e := entryOf(kind, d.Name+"="); d.Reads != (sim.Read{}) && merged[e] == 0 {
				t.Errorf("no move of a tunable bounded by %s (%s) kept a trace-canonical form", e, d.Name)
			}
		}
	}
	t.Logf("%d of %d bounded moves kept the trace-canonical form; by entry %v", aliased, moves, merged)
}

// entryOf returns the read-profile entry of the tunable a move ("name=")
// names, without the classes of a class read: every trace executes integer
// ALU operations, so pipes.int_alu never merges, but the entry does.
func entryOf(kind core.Kind, move string) string {
	for _, d := range sim.Params(kind) {
		if strings.HasPrefix(move, d.Name+"=") {
			e, _, _ := strings.Cut(d.Reads.String(), ":")
			return e
		}
	}
	return ""
}

// TestTraceCanonicalSeparates: a trace-canonical form is a refinement of
// the canonical form and no coarser than the trace allows — on a trace
// whose tables all collide (aliasTrace), moving a table size keeps
// configurations apart.
func TestTraceCanonicalSeparates(t *testing.T) {
	tr := aliasTrace()
	for _, base := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
		base.Branch.Kind = "tournament"
		base.Branch.IndirectEnabled = true
		p := sim.ProfileOf(tr.Decoded(base.DecoderDepBug))
		if sim.TraceCanonical(base, p) != sim.TraceCanonical(sim.Canonical(base), p) {
			t.Fatalf("%s: TraceCanonical of the canonical form differs", base.Name)
		}
		for _, name := range []string{"branch.bimodal_entries", "branch.gshare_entries", "branch.chooser_entries", "branch.indirect_entries"} {
			for _, d := range sim.Params(base.Kind) {
				if d.Name != name {
					continue
				}
				a, b := base, base
				if d.Set(&a, d.Values[0]) != nil || d.Set(&b, d.Values[1]) != nil {
					t.Fatal(name)
				}
				if sim.TraceCanonical(a, p) == sim.TraceCanonical(b, p) {
					t.Errorf("%s: %s=%s and %s merged on %s, whose keys collide at both", base.Name, name, d.Values[0], d.Values[1], tr.Name)
				}
			}
		}
	}
}

// FuzzTraceCanonical is the differential check under trace-read aliasing.
// The fuzz bytes pick a core kind, a configuration — sampled from the
// kind's tuning space, or one step from its preset — a second
// configuration one move from the first, and a trace. Whenever the two
// share a TraceCanonical form on the trace, both replays and the reference
// simulator must return one result. The traces are the reference test's
// tiny micro-benchmarks and Table II workloads, and the corpus starts from
// its seeds; crashers live in testdata/fuzz/FuzzTraceCanonical.
func FuzzTraceCanonical(f *testing.F) {
	trs := referenceTraces(f)
	for _, seed := range []int64{37, 7, 1} {
		for k := uint8(0); k < 4; k++ {
			f.Add(k, seed, uint16(seed)*7+uint16(k), uint16(seed)+uint16(k)*3, uint8(seed)+k)
		}
	}
	f.Fuzz(func(t *testing.T, how uint8, seed int64, param, value uint16, traceIdx uint8) {
		base := sim.PublicA53()
		if how&1 != 0 {
			base = sim.PublicA72()
		}
		rng := rand.New(rand.NewSource(seed))
		a := base
		if how&2 != 0 {
			sp, err := sim.Space(base.Kind, nil)
			if err != nil {
				t.Fatal(err)
			}
			var ok bool
			for tries := 0; tries < 20 && !ok; tries++ {
				a, err = sim.Apply(base, irace.SampleUniform(sp, rng))
				ok = err == nil
			}
			if !ok {
				t.Skip("no valid sample")
			}
		} else {
			defs := sim.Params(base.Kind)
			d := defs[rng.Intn(len(defs))]
			if d.Set(&a, d.Values[rng.Intn(len(d.Values))]) != nil || core.Config(a).Validate() != nil {
				t.Skip("invalid step")
			}
		}
		defs := sim.Params(a.Kind)
		d := defs[int(param)%len(defs)]
		b := a
		if d.Set(&b, d.Values[int(value)%len(d.Values)]) != nil || core.Config(b).Validate() != nil {
			t.Skip("invalid move")
		}
		tr := trs[int(traceIdx)%len(trs)]
		p := sim.ProfileOf(tr.Decoded(a.DecoderDepBug))
		if sim.TraceCanonical(a, p) != sim.TraceCanonical(b, p) {
			return
		}
		ra, err := a.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		ref := reference(t, a, tr)
		if !reflect.DeepEqual(ra, ref) || !reflect.DeepEqual(rb, ref) {
			t.Fatalf("%s on %s: %s=%s keeps the trace-canonical form but the results differ\n a         %+v\n b         %+v\n reference %+v",
				a.Kind, tr.Name, d.Name, d.Values[int(value)%len(d.Values)], ra, rb, ref)
		}
	})
}
