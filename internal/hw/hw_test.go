package hw

import (
	"math"
	"testing"

	"racesim/internal/core"
	"racesim/internal/prefetch"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/ubench"
)

func TestTrueConfigsValidate(t *testing.T) {
	for _, cfg := range []sim.Config{TrueA53(), TrueA72()} {
		if err := core.Config(cfg).Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestTrueTunablesInsideSearchSpace(t *testing.T) {
	// Every tunable of the ground truth must be a value the tuner could
	// select — except the deliberate abstraction gaps.
	for _, cfg := range []sim.Config{TrueA53(), TrueA72()} {
		space, err := sim.Space(cfg.Kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := sim.Extract(cfg)
		err = space.Validate(a)
		if cfg.Kind == core.InOrder {
			if err != nil {
				t.Errorf("%s: ground truth outside space: %v", cfg.Name, err)
			}
		} else {
			// The A72's spatial L2 prefetcher is intentionally outside.
			if err == nil {
				t.Errorf("%s: expected the spatial prefetcher to be outside the space", cfg.Name)
			}
			a["l2.prefetch.kind"] = "stride"
			if err := space.Validate(a); err != nil {
				t.Errorf("%s: after masking the prefetcher, still outside: %v", cfg.Name, err)
			}
		}
	}
}

func TestAbstractionGapsPresent(t *testing.T) {
	a53, a72 := TrueA53(), TrueA72()
	if !a53.Mem.ZeroFillOpt || !a72.Mem.ZeroFillOpt {
		t.Error("boards must implement the zero-fill page optimization")
	}
	if a53.DecoderDepBug || a72.DecoderDepBug {
		t.Error("boards must decode correctly")
	}
	if a72.Mem.L2.Prefetch.Kind != prefetch.KindSpatial {
		t.Error("A72 must use the undisclosed spatial prefetcher")
	}
	pub53, pub72 := sim.PublicA53(), sim.PublicA72()
	if pub53.Mem.ZeroFillOpt || pub72.Mem.ZeroFillOpt {
		t.Error("public models must not know about zero-fill")
	}
	if !pub53.DecoderDepBug || !pub72.DecoderDepBug {
		t.Error("public models start with the decoder bug")
	}
}

func TestMeasureDeterministicWithNoise(t *testing.T) {
	p, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ubench.ByName("ED1")
	tr, err := b.Trace(ubench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := p.A53.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.A53.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("repeated measurement differs (noise must be deterministic)")
	}
	if c1.CPI <= 0 || c1.Instructions == 0 {
		t.Errorf("bad counters: %+v", c1)
	}
	// Noise must actually perturb relative to the noiseless run.
	noiseless, err := NewBoard("x", 1.5, TrueA53(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := noiseless.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Cycles == c3.Cycles {
		t.Log("noise happened to round to zero for this trace (acceptable)")
	}
	ratio := float64(c1.Cycles) / float64(c3.Cycles)
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("noise ratio %v outside ±1%%+rounding", ratio)
	}
}

func TestPublicModelsDivergeFromBoards(t *testing.T) {
	// The whole premise: best-guess models mispredict the boards. Check a
	// healthy average CPI error across a few microbenchmarks.
	p, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		board  *Board
		public sim.Config
	}{
		{p.A53, sim.PublicA53()},
		{p.A72, sim.PublicA72()},
	}
	for _, c := range cases {
		var totalErr float64
		n := 0
		for _, name := range []string{"ED1", "EF", "CCh", "MD", "CS1", "MIM"} {
			b, _ := ubench.ByName(name)
			tr, err := b.Trace(ubench.Options{})
			if err != nil {
				t.Fatal(err)
			}
			hwC, err := c.board.Measure(tr)
			if err != nil {
				t.Fatal(err)
			}
			simR, err := c.public.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			e := (simR.CPI() - hwC.CPI) / hwC.CPI
			if e < 0 {
				e = -e
			}
			totalErr += e
			n++
		}
		avg := totalErr / float64(n)
		if avg < 0.10 {
			t.Errorf("%s: untuned average CPI error %.1f%% suspiciously low; the boards must diverge from the public model", c.board.Name, avg*100)
		}
		t.Logf("%s: untuned average CPI error over probe benches: %.1f%%", c.board.Name, avg*100)
	}
}

func TestBadBoardConfigs(t *testing.T) {
	bad := sim.PublicA53()
	bad.Width = 0
	if _, err := NewBoard("x", 1, bad, 0.01); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewBoard("x", 1, sim.PublicA53(), 0.5); err == nil {
		t.Error("absurd noise accepted")
	}
}

// eventsOf reads every event of tr through a cursor.
func eventsOf(t testing.TB, tr *trace.Trace) []trace.Event {
	t.Helper()
	c, err := trace.NewCursor(tr)
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		evs = append(evs, ev)
	}
	return evs
}

func TestWarmDataDisablesZeroFillOnBoard(t *testing.T) {
	// A cold-read stream measured with and without the WarmData
	// declaration: the board's zero-fill optimization must only apply to
	// the cold (uninitialized) variant.
	b, _ := ubench.ByName("MIM")
	tr, err := b.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.A53.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	warm := trace.New(tr.Name, true, eventsOf(t, tr)...)
	warmC, err := p.A53.Measure(warm)
	if err != nil {
		t.Fatal(err)
	}
	if warmC.CPI <= cold.CPI {
		t.Errorf("warm-data CPI %.2f should exceed zero-filled cold CPI %.2f", warmC.CPI, cold.CPI)
	}
}

// TestBoardMeasuresOnceThroughCache: a board that keeps its replays in a
// cache returns the counters of a plain board bit for bit — the noise is
// applied after the lookup — replays a trace once however often it is
// measured, files the replay under the ordinary key of its hidden
// configuration, and shares it with a re-noised board over the same
// configuration (and with nobody else: the other core replays for itself).
func TestBoardMeasuresOnceThroughCache(t *testing.T) {
	p, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	var trs []*trace.Trace
	for _, name := range []string{"ED1", "MD", "CS1"} {
		b, _ := ubench.ByName(name)
		tr, err := b.Trace(ubench.Options{Scale: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	cache := simcache.New()
	cached := p.WithCache(cache)
	noisy, err := NewBoard("firefly-a53-noise-0.05", p.A53.FreqGHz, p.A53.TrueConfig(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*Board{
		{p.A53, cached.A53}, {p.A53, cached.A53}, // second pass: hits
		{p.A72, cached.A72},
		{noisy, noisy.WithCache(cache)},
	} {
		for _, tr := range trs {
			want, err := pair[0].Measure(tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pair[1].Measure(tr)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s on %s: counters through the cache %+v, direct %+v", pair[0].Name, tr.Name, got, want)
			}
		}
	}
	// 12 measurements: the A53 and the A72 replayed each trace once; the
	// A53's second pass and its re-noised twin were lookups.
	if st := cache.Stats(); st.Misses != 6 || st.Hits != 6 || st.Entries != 6 {
		t.Errorf("cache: %+v, want 6 replays, 6 hits, 6 entries", st)
	}
	if _, ok := cache.Peek(simcache.Key(p.A72.TrueConfig(), trs[0])); !ok {
		t.Error("the board's replay is not filed under the key of its configuration")
	}
	if p.A53.cache != nil || p.A72.cache != nil {
		t.Error("WithCache changed the platform it was called on")
	}
}

// TestCPIErrorNeedsPositiveFiniteCPI: the relative error is defined only
// against a positive, finite hardware CPI; anything else is an error,
// never a NaN or an Inf.
func TestCPIErrorNeedsPositiveFiniteCPI(t *testing.T) {
	res := core.Result{Instructions: 100, Cycles: 150}
	if e, err := (Counters{CPI: 2}).CPIError(&res); err != nil || e != 0.25 {
		t.Errorf("CPI 2 against a simulated 1.5: error %v, %v; want 0.25", e, err)
	}
	for _, cpi := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if e, err := (Counters{CPI: cpi}).CPIError(&res); err == nil {
			t.Errorf("hardware CPI %v: error %v and no failure", cpi, e)
		}
	}
}
