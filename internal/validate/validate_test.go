package validate

import (
	"math"
	"slices"
	"strings"
	"testing"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
)

func measurements(t *testing.T, board *hw.Board) []Measurement {
	t.Helper()
	ms, err := MeasureSuite(board, ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestMeasureSuiteCoversAllBenches(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)
	if len(ms) != 40 {
		t.Fatalf("%d measurements, want 40", len(ms))
	}
	for _, m := range ms {
		if m.Counters.CPI <= 0 {
			t.Errorf("%s: zero CPI", m.Bench.Name)
		}
		if m.Trace.Len() == 0 {
			t.Errorf("%s: empty trace", m.Bench.Name)
		}
	}
}

// TestMeasureSuiteSameForAnySources: the one measure path returns the same
// counters over equal traces whether the traces are generated or the
// memo's, the board replays or looks up, one worker or several; through a
// shared memo and cache a second pass — and the initialized suite's 37
// benchmarks whose traces the option does not change — replay nothing.
func TestMeasureSuiteSameForAnySources(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	opts := ubench.Options{Scale: 0.002}
	want := measurements(t, p.A53)
	memo, cache := tracememo.New(0, 0), simcache.New()
	board := p.A53.WithCache(cache)
	for pass := 0; pass < 2; pass++ {
		got, err := MeasureSuiteWith(board, opts, memo, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range got {
			if m.Bench.Name != want[i].Bench.Name || m.Counters != want[i].Counters || m.Trace.Digest() != want[i].Trace.Digest() {
				t.Errorf("pass %d, %s: measurement through memo and cache differs from the direct one", pass, want[i].Bench.Name)
			}
		}
		one, err := MeasureBench(board, got[7].Bench, opts, memo)
		if err != nil {
			t.Fatal(err)
		}
		if one.Trace != got[7].Trace || one.Counters != got[7].Counters {
			t.Errorf("pass %d: MeasureBench and MeasureSuiteWith disagree on %s", pass, got[7].Bench.Name)
		}
	}
	if st := memo.Stats(); st.Misses != 40 || st.Hits != 42 {
		t.Errorf("memo: %+v, want the suite built once", st)
	}
	if st := cache.Stats(); st.Misses != 40 || st.Hits != 42 {
		t.Errorf("cache: %+v, want the suite replayed once", st)
	}
	opts.InitArrays = true
	if _, err := MeasureSuiteWith(board, opts, memo, 4); err != nil {
		t.Fatal(err)
	}
	if st := memo.Stats(); st.Misses != 80 {
		t.Errorf("memo: %+v, want the initialized suite built as 40 inputs of its own", st)
	}
	if st := cache.Stats(); st.Misses != 43 {
		t.Errorf("cache: %+v, want 3 more replays (the benchmarks that read uninitialized memory)", st)
	}
}

func TestErrorsAndAggregates(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)
	es, err := Errors(sim.PublicA53(), ms)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := MeanError(es)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0.10 {
		t.Errorf("untuned mean error %.1f%% too low to exercise the methodology", mean*100)
	}
	worst, ok, err := MaxError(es)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || worst.Error < mean {
		t.Errorf("worst error %v below mean %v", worst.Error, mean)
	}
	cats := CategoryErrors(es)
	if len(cats) != 5 {
		t.Errorf("category triage covers %d categories, want 5", len(cats))
	}
	t.Logf("untuned A53: mean %.1f%%, worst %s %.1f%%", mean*100, worst.Name, worst.Error*100)
}

func TestEvaluatorInvalidAssignmentLosesRaces(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)[:3]
	e := &Evaluator{Base: sim.PublicA53(), Ms: ms}
	bad := irace.Assignment{"l1d.hit_latency": "nonsense"}
	if c := e.Cost(bad, 0); !math.IsInf(c, 1) {
		t.Errorf("invalid assignment cost = %v, want +Inf", c)
	}
	good := sim.Extract(sim.PublicA53())
	if c := e.Cost(good, 0); math.IsInf(c, 1) || c < 0 {
		t.Errorf("valid assignment cost = %v", c)
	}
	if err := e.Err(); err != nil {
		t.Errorf("a rejected overlay is not a simulation failure, got %v", err)
	}
}

// TestTuneFailsOnBrokenTrace: every candidate a race scores is a valid
// configuration, so a simulation that fails says an input (or the
// simulator) is broken. The race must not quietly score it +Inf, tune on
// what is left and hand back a configuration: Tune fails, naming the
// benchmark whose trace does not decode.
func TestTuneFailsOnBrokenTrace(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)[:6]
	const broken = 2
	good := ms[broken].Trace
	c, err := trace.NewCursor(good)
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		evs = append(evs, ev)
	}
	ms[broken].Trace = trace.New(good.Name, false, append(evs, trace.Event{PC: 0x9000, Word: ^uint32(0)})...)

	for _, cache := range []*simcache.Cache{nil, simcache.New()} {
		res, err := Tune(sim.PublicA53(), ms, TuneOptions{Budget: 120, Seed: 3, Cache: cache, Parallelism: 2})
		if err == nil {
			t.Fatalf("Tune over a suite with an undecodable trace returned %s", res.Tuned.Name)
		}
		if !strings.Contains(err.Error(), ms[broken].Bench.Name) {
			t.Errorf("error does not name benchmark %s: %v", ms[broken].Bench.Name, err)
		}
	}
}

// TestCostBatchMatchesCost pins the BatchEvaluator contract on the real
// evaluator: element i of CostBatch is exactly Cost(as[i], instance) — the
// cost function over an uncached simulation of the overlaid configuration —
// including the +Inf slots of invalid assignments mixed into the batch,
// and with the branch-MPKI weight exercising the full cost function.
func TestCostBatchMatchesCost(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)[:3]
	e := &Evaluator{Base: sim.PublicA53(), Ms: ms, Weights: CostWeights{BranchMPKI: 0.2}, Cache: simcache.New()}

	base := sim.Extract(sim.PublicA53())
	varied := sim.Extract(sim.PublicA53())
	varied["l1d.hit_latency"] = "4"
	as := []irace.Assignment{
		base,
		{"l1d.hit_latency": "nonsense"}, // invalid: must stay +Inf
		varied,
	}
	for inst, m := range ms {
		batch := e.CostBatch(as, inst)
		if len(batch) != len(as) {
			t.Fatalf("instance %d: %d costs for %d assignments", inst, len(batch), len(as))
		}
		for i, a := range as {
			want := math.Inf(1)
			if cfg, err := sim.Apply(e.Base, a); err == nil {
				res, err := cfg.Run(m.Trace)
				if err != nil {
					t.Fatal(err)
				}
				if want, err = m.Counters.CPIError(res); err != nil {
					t.Fatal(err)
				}
				want += e.cost(res, m)
			}
			if batch[i] != want {
				t.Errorf("instance %d assignment %d: CostBatch %v, want %v", inst, i, batch[i], want)
			}
			if one := e.Cost(a, inst); one != want {
				t.Errorf("instance %d assignment %d: Cost %v, want %v", inst, i, one, want)
			}
		}
	}
	if err := e.Err(); err != nil {
		t.Errorf("evaluator remembered a failure on healthy traces: %v", err)
	}
}

func TestTuneReducesError(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)
	base := sim.PublicA53()
	before, err := Errors(base, ms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(base, ms, TuneOptions{Budget: 900, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	after, err := MeanError(res.Errors)
	if err != nil {
		t.Fatal(err)
	}
	beforeMean, err := MeanError(before)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tune: %.1f%% -> %.1f%% (budget 900)", beforeMean*100, after*100)
	if after >= beforeMean {
		t.Errorf("tuning did not reduce mean error: %.3f -> %.3f", beforeMean, after)
	}
}

func TestSeedLatencies(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SeedLatencies(sim.PublicA53(), p.A53, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := p.A53.TrueConfig()
	if cfg.Mem.L1D.HitLatency != truth.Mem.L1D.HitLatency {
		t.Errorf("seeded L1 latency %d, truth %d", cfg.Mem.L1D.HitLatency, truth.Mem.L1D.HitLatency)
	}
	// L2 and DRAM should land within one step of truth.
	if d := cfg.Mem.L2.HitLatency - truth.Mem.L2.HitLatency; d < -3 || d > 6 {
		t.Errorf("seeded L2 latency %d, truth %d", cfg.Mem.L2.HitLatency, truth.Mem.L2.HitLatency)
	}
	if d := cfg.Mem.DRAM.LatencyCycles - truth.Mem.DRAM.LatencyCycles; d < -60 || d > 60 {
		t.Errorf("seeded DRAM latency %d, truth %d", cfg.Mem.DRAM.LatencyCycles, truth.Mem.DRAM.LatencyCycles)
	}
}

// TestSeedLatenciesAreListedValues: every latency SeedLatencies sets, on
// both boards, is a listed value of its tunable. A value outside the list
// would make the perturbation search skip that tunable without a word.
func TestSeedLatenciesAreListedValues(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		board *hw.Board
		base  sim.Config
	}{{p.A53, sim.PublicA53()}, {p.A72, sim.PublicA72()}} {
		cfg, err := SeedLatencies(c.base, c.board, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"l1d.hit_latency", "l2.hit_latency", "dram.latency"} {
			i := slices.IndexFunc(sim.Params(cfg.Kind), func(d sim.ParamDef) bool { return d.Name == name })
			if i < 0 {
				t.Fatalf("%s is no tunable of %s cores", name, cfg.Kind)
			}
			d := sim.Params(cfg.Kind)[i]
			if v := d.Get(&cfg); !slices.Contains(d.Values, v) {
				t.Errorf("%s: seeded %s = %s is not one of %v", c.base.Name, name, v, d.Values)
			}
		}
	}
	if _, err := candidates(core.InOrder, "l3.hit_latency"); err == nil {
		t.Error("a name that is no tunable was accepted")
	}
}

func TestPipelineStagedImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("staged pipeline is expensive")
	}
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Pipeline(p.A53, sim.PublicA53(), PaperStages(800, 1000), PipelineOptions{
		Seed:        3,
		UbenchScale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("%d stages, want 3", len(stages))
	}
	u, r1, fx := stages[0].MeanError, stages[1].MeanError, stages[2].MeanError
	t.Logf("pipeline: untuned %.1f%% -> round1 %.1f%% -> fixed %.1f%%", u*100, r1*100, fx*100)
	if r1 >= u {
		t.Errorf("round 1 (%.3f) did not improve on untuned (%.3f)", r1, u)
	}
	if fx >= r1 {
		t.Errorf("fixes+round 2 (%.3f) did not improve on round 1 (%.3f)", fx, r1)
	}
}
