package racesim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"racesim/internal/core"
	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// runCursor replays a trace through the legacy per-event decode path (a
// trace.Cursor feeding the model's decode cache). The production API only
// exposes the decode-once and batched paths; this oracle lives in the test
// files so the parity suite can still compare against a replay that
// re-derives everything per event.
func runCursor(cfg sim.Config, tr *trace.Trace) (core.Result, error) {
	if tr.WarmData {
		cfg.Mem.ZeroFillOpt = false
	}
	m, err := cfg.Model()
	if err != nil {
		return core.Result{}, err
	}
	src, err := trace.NewCursor(tr)
	if err != nil {
		return core.Result{}, err
	}
	return m.Run(src)
}

// parityTraces returns replay-parity fixtures spanning both trace sources:
// an emulated micro-benchmark (cold data) and a synthesized workload
// (WarmData, which flips the zero-fill handling).
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

// parityConfigs returns both public presets plus their DepBug variants, so
// the golden comparison covers both core kinds and both decoder variants.
func parityConfigs() []sim.Config {
	a53bug := sim.PublicA53()
	a53bug.DecoderDepBug = true
	a72bug := sim.PublicA72()
	a72bug.DecoderDepBug = true
	return []sim.Config{sim.PublicA53(), a53bug, sim.PublicA72(), a72bug}
}

// TestReplayParityDecodedVsCursor is the golden replay-parity test: the
// decode-once columnar path (Config.Run) must produce a core.Result
// deep-equal to the legacy per-event decode oracle (runCursor, above) for
// both core kinds, both decoder variants, and both trace sources.
func TestReplayParityDecodedVsCursor(t *testing.T) {
	for _, tr := range parityTraces(t) {
		for _, cfg := range parityConfigs() {
			legacy, err := runCursor(cfg, tr)
			if err != nil {
				t.Fatalf("%s on %s (cursor): %v", cfg.Name, tr.Name, err)
			}
			decoded, err := cfg.Run(tr)
			if err != nil {
				t.Fatalf("%s on %s (decoded): %v", cfg.Name, tr.Name, err)
			}
			if !reflect.DeepEqual(legacy, decoded) {
				t.Errorf("%s (kind %s, depbug %v) on %s:\n cursor  %+v\n decoded %+v",
					cfg.Name, cfg.Kind, cfg.DecoderDepBug, tr.Name, legacy, decoded)
			}
		}
	}
}

// TestReplayParityInvalidWord asserts both paths fail identically on an
// undecodable word: same error text, after replaying the same prefix.
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
		_, errCursor := runCursor(cfg, bad)
		_, errDecoded := cfg.Run(bad)
		if errCursor == nil || errDecoded == nil {
			t.Fatalf("%s: want errors from both paths, got cursor=%v decoded=%v", cfg.Kind, errCursor, errDecoded)
		}
		if errCursor.Error() != errDecoded.Error() {
			t.Errorf("%s: error mismatch:\n cursor  %v\n decoded %v", cfg.Kind, errCursor, errDecoded)
		}
	}
}

// TestDecodedSharedAcrossWorkers replays one shared Decoded concurrently
// from many workers under different configurations — the runner-pool
// sharing pattern — and checks every worker gets the sequential answer.
// Run with -race to verify the immutable-sharing contract.
func TestDecodedSharedAcrossWorkers(t *testing.T) {
	tr := parityTraces(t)[0]
	d := tr.Decoded(false)
	configs := make([]sim.Config, 16)
	for i := range configs {
		var cfg sim.Config
		if i%2 == 0 {
			cfg = sim.PublicA53()
			cfg.Width = 1 + i%2
			cfg.Mem.L1D.HitLatency = 2 + i/2%3
		} else {
			cfg = sim.PublicA72()
			cfg.ROBEntries = 64 + 16*(i/2%4)
		}
		cfg.DecoderDepBug = false // all workers share the one correct-decode variant
		configs[i] = cfg
	}
	want := make([]core.Result, len(configs))
	for i, cfg := range configs {
		res, err := cfg.RunDecoded(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	got := make([]core.Result, len(configs))
	errs := make([]error, len(configs))
	for i := range configs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = configs[i].RunDecoded(d)
		}(i)
	}
	wg.Wait()
	for i := range configs {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("worker %d: concurrent result differs from sequential", i)
		}
	}
}

// sampleConfig draws one random configuration from the tuning space of a
// random core kind. Invalid parameter combinations are resampled, so the
// result is always a validated configuration.
func sampleConfig(t *testing.T, rng *rand.Rand, spaces map[sim.CoreKind]*irace.Space, depBug bool) sim.Config {
	t.Helper()
	for tries := 0; tries < 100; tries++ {
		base := sim.PublicA53()
		if rng.Intn(2) == 1 {
			base = sim.PublicA72()
		}
		base.DecoderDepBug = depBug
		a := irace.Assignment{}
		for _, p := range spaces[base.Kind].Params {
			a[p.Name] = p.Values[rng.Intn(len(p.Values))]
		}
		cfg, err := sim.Apply(base, a)
		if err != nil {
			continue // invalid combination: resample
		}
		return cfg
	}
	t.Fatal("could not sample a valid configuration in 100 tries")
	return sim.Config{}
}

// TestRunBatchParityRandomVectors is the replay-parity property test:
// random vectors of configurations drawn from the tuning space — mixing
// both core kinds within one batch — must come back from sim.RunBatch
// exactly equal, slot by slot, to a RunDecoded of each configuration on its
// own and to the per-event core.Model reference (runCursor), which shares
// neither the recycled lanes nor the decode's tapes. Both decoder variants
// and both trace sources are covered.
func TestRunBatchParityRandomVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(20190324)) // the paper's conference date
	spaces := map[sim.CoreKind]*irace.Space{}
	for _, kind := range []sim.CoreKind{sim.InOrder, sim.OutOfOrder} {
		sp, err := sim.Space(kind)
		if err != nil {
			t.Fatal(err)
		}
		spaces[kind] = sp
	}
	for _, tr := range parityTraces(t) {
		for _, depBug := range []bool{false, true} {
			d := tr.Decoded(depBug)
			for round := 0; round < 3; round++ {
				n := 2 + rng.Intn(9) // 2..10
				cfgs := make([]sim.Config, n)
				for i := range cfgs {
					cfgs[i] = sampleConfig(t, rng, spaces, depBug)
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
					ref, err := runCursor(cfg, tr)
					if err != nil {
						t.Fatalf("%s depbug=%v round %d config %d: core.Model: %v", tr.Name, depBug, round, i, err)
					}
					if one != batched[i] || ref != batched[i] {
						t.Errorf("%s depbug=%v round %d config %d (%s):\n core.Model %+v\n RunDecoded %+v\n RunBatch   %+v",
							tr.Name, depBug, round, i, cfg.Kind, ref, one, batched[i])
					}
				}
			}
		}
	}
}

// TestRunRejectsMismatchedDecodedVariant guards the DepBug contract: a
// decoded trace built with one decoder variant cannot silently replay on a
// model configured with the other.
func TestRunRejectsMismatchedDecodedVariant(t *testing.T) {
	tr := parityTraces(t)[0]
	cfg := sim.PublicA53()
	cfg.DecoderDepBug = true
	if _, err := cfg.RunDecoded(tr.Decoded(false)); err == nil {
		t.Fatal("want variant-mismatch error")
	}
}
