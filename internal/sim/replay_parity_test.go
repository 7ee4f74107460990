package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// parityTraces returns replay-parity fixtures spanning both trace sources:
// an emulated micro-benchmark (cold data) and a synthesized workload
// (WarmData, which flips the zero-fill handling). They are longer than
// referenceTraces, so caches, predictors and queues reach a steady state.
func parityTraces(t testing.TB) []*trace.Trace {
	t.Helper()
	b, ok := ubench.ByName("MD")
	if !ok {
		t.Fatal("missing micro-benchmark MD")
	}
	ub, err := b.Trace(ubench.Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing workload mcf")
	}
	wl, err := workload.Generate(p, workload.Options{Events: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	return []*trace.Trace{ub, wl}
}

// parityConfigs returns both public presets plus their variants with the
// other decoder, so the golden comparison covers both core kinds and both
// decoder variants.
func parityConfigs() []sim.Config {
	out := []sim.Config{sim.PublicA53(), sim.PublicA72()}
	for _, cfg := range out[:2] {
		cfg.DecoderDepBug = !cfg.DecoderDepBug
		out = append(out, cfg)
	}
	return out
}

// TestReplayParityDecodedVsCursor is the golden replay-parity test: the
// decode-once columnar path (Config.Run) must produce a core.Result
// deep-equal to the reference simulator's, which decodes event by event
// from a trace.Cursor, for both core kinds, both decoder variants, and both
// trace sources.
func TestReplayParityDecodedVsCursor(t *testing.T) {
	for _, tr := range parityTraces(t) {
		for _, cfg := range parityConfigs() {
			ref := reference(t, cfg, tr)
			decoded, err := cfg.Run(tr)
			if err != nil {
				t.Fatalf("%s on %s (decoded): %v", cfg.Name, tr.Name, err)
			}
			if !reflect.DeepEqual(ref, decoded) {
				t.Errorf("%s (kind %s, depbug %v) on %s:\n reference %+v\n decoded   %+v",
					cfg.Name, cfg.Kind, cfg.DecoderDepBug, tr.Name, ref, decoded)
			}
		}
	}
}

// TestReplayParityInvalidWord asserts the product and the reference fail
// identically on an undecodable word: same error text.
func TestReplayParityInvalidWord(t *testing.T) {
	tr := parityTraces(t)[0]
	c, err := trace.NewCursor(tr)
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for ev, ok := c.Next(); ok && len(evs) < 16; ev, ok = c.Next() {
		evs = append(evs, ev)
	}
	bad := trace.New("bad", false, append(evs, trace.Event{PC: 0x9000, Word: ^uint32(0)})...)
	for _, cfg := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
		_, errRef := refRun(cfg, bad)
		_, errDecoded := cfg.Run(bad)
		if errRef == nil || errDecoded == nil {
			t.Fatalf("%s: want errors from both, got reference=%v decoded=%v", cfg.Kind, errRef, errDecoded)
		}
		if errRef.Error() != errDecoded.Error() {
			t.Errorf("%s: error mismatch:\n reference %v\n decoded   %v", cfg.Kind, errRef, errDecoded)
		}
	}
}

// TestRunBatchParityRandomVectors is the replay-parity property test:
// random vectors of configurations drawn from the tuning space — mixing
// both core kinds within one batch — must come back from sim.RunBatch
// exactly equal, slot by slot, to a RunDecoded of each configuration on its
// own and to the reference simulator, which shares neither the recycled
// lanes nor the decode's tapes. Both decoder variants and both trace
// sources are covered.
func TestRunBatchParityRandomVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(20190324)) // the paper's conference date
	for _, tr := range parityTraces(t) {
		for _, depBug := range []bool{false, true} {
			d := tr.Decoded(depBug)
			for round := 0; round < 3; round++ {
				n := 2 + rng.Intn(9) // 2..10
				cfgs := make([]sim.Config, n)
				for i := range cfgs {
					base := sim.PublicA53()
					if rng.Intn(2) == 1 {
						base = sim.PublicA72()
					}
					base.DecoderDepBug = depBug
					cfgs[i] = sampleConfig(t, base, rng)
				}
				batched, err := sim.RunBatch(cfgs, d)
				if err != nil {
					t.Fatalf("%s depbug=%v round %d: RunBatch: %v", tr.Name, depBug, round, err)
				}
				if len(batched) != n {
					t.Fatalf("%s depbug=%v round %d: %d results for %d configurations", tr.Name, depBug, round, len(batched), n)
				}
				for i, cfg := range cfgs {
					one, err := cfg.RunDecoded(d)
					if err != nil {
						t.Fatalf("%s depbug=%v round %d config %d: RunDecoded: %v", tr.Name, depBug, round, i, err)
					}
					ref := reference(t, cfg, tr)
					if one != batched[i] || ref != batched[i] {
						t.Errorf("%s depbug=%v round %d config %d (%s):\n reference  %+v\n RunDecoded %+v\n RunBatch   %+v",
							tr.Name, depBug, round, i, cfg.Kind, ref, one, batched[i])
					}
				}
			}
		}
	}
}
