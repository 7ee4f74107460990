package perturb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/workload"
)

func workloads(t *testing.T, board *hw.Board, n, events int) []Workload {
	t.Helper()
	var out []Workload
	for _, p := range workload.Profiles()[:n] {
		tr, err := workload.Generate(p, workload.Options{Events: events})
		if err != nil {
			t.Fatal(err)
		}
		c, err := board.Measure(tr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Workload{Name: p.Name, Trace: tr, Counters: c})
	}
	return out
}

func TestWorstNearOptimumInflatesError(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	// Use the ground truth as the "tuned optimum": its own error is just
	// the measurement noise, so single-step deviations must hurt.
	tuned := p.A53.TrueConfig()
	ws := workloads(t, p.A53, 4, 20_000)
	_, optErr, err := meanError(tuned, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := WorstNearOptimum(tuned, ws, Options{Restarts: 1, MaxPasses: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("optimum error %.1f%% -> worst one-step %.1f%% (%d deviations)",
		optErr*100, res.MeanError*100, res.Deviations)
	if res.MeanError <= optErr*2 {
		t.Errorf("one-step worst case %.3f should be well above optimum %.3f", res.MeanError, optErr)
	}
	if res.Deviations == 0 {
		t.Error("worst configuration deviates in zero parameters")
	}
	if len(res.Errors) != len(ws) {
		t.Errorf("%d per-workload errors, want %d", len(res.Errors), len(ws))
	}
}

func TestNeighborsRespectBounds(t *testing.T) {
	defs := sim.Params(core.InOrder)
	for _, d := range defs {
		if !d.Ordered || len(d.Values) < 2 {
			continue
		}
		if ns := neighbors(d, d.Values[0]); len(ns) != 1 || ns[0] != d.Values[1] {
			t.Errorf("%s: neighbors at low edge = %v", d.Name, ns)
		}
		last := len(d.Values) - 1
		if ns := neighbors(d, d.Values[last]); len(ns) != 1 || ns[0] != d.Values[last-1] {
			t.Errorf("%s: neighbors at high edge = %v", d.Name, ns)
		}
		if len(d.Values) > 2 {
			if ns := neighbors(d, d.Values[1]); len(ns) != 2 {
				t.Errorf("%s: interior neighbors = %v", d.Name, ns)
			}
		}
	}
}

// TestSimulationErrorAbortsSearch: the search used to treat a simulation
// that failed like a parameter combination sim.Apply rejects and skip the
// trial, so a broken simulator (a tape replay out of step, an input that is
// not what it was remembered as) shrank the study silently. Here one
// workload's trace is a deferred one whose generator fails, over a cache
// that already holds the optimum's results: the optimum is scored from the
// cache without reading an event, the first neighbour misses, and its
// failure must end the search.
func TestSimulationErrorAbortsSearch(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	tuned := p.A53.TrueConfig()
	ws := workloads(t, p.A53, 2, 20_000)
	cache := simcache.New()
	if _, _, err := meanError(tuned, ws, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	ws[1].Trace = trace.Deferred(ws[1].Trace.Name, ws[1].Trace.Identity(), func() (*trace.Trace, error) { return nil, boom })
	if _, _, err := meanError(tuned, ws, Options{Cache: cache}); err != nil {
		t.Fatalf("the optimum is in the cache and should need no events: %v", err)
	}
	_, err = WorstNearOptimum(tuned, ws, Options{Restarts: 1, MaxPasses: 1, Seed: 1, Cache: cache})
	if !errors.Is(err, boom) {
		t.Fatalf("WorstNearOptimum returned error %v, want the failed simulation's", err)
	}
}

// TestEmptyWorkloadFailsSearch: a board measures an empty trace at CPI 0,
// which has no relative error. The search must say so and name the
// workload, not score every configuration NaN.
func TestEmptyWorkloadFailsSearch(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("empty", false)
	c, err := p.A53.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	ws := append(workloads(t, p.A53, 1, 20_000), Workload{Name: "empty", Trace: tr, Counters: c})
	res, err := WorstNearOptimum(p.A53.TrueConfig(), ws, Options{Restarts: 1, MaxPasses: 1, Seed: 1})
	if err == nil {
		t.Fatalf("WorstNearOptimum over an empty workload returned mean error %v, errors %v and no error", res.MeanError, res.Errors)
	}
	if !strings.Contains(err.Error(), "empty") {
		t.Errorf("error %q does not name the workload", err)
	}
}

// TestWorstNearOptimumStopsOnCancel: a search whose context is cancelled
// part-way — here by its own first log line — stops with the context's
// error instead of finishing the ascent.
func TestWorstNearOptimumStopsOnCancel(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = WorstNearOptimum(p.A53.TrueConfig(), workloads(t, p.A53, 2, 20_000), Options{
		Restarts: 1, MaxPasses: 1, Seed: 1, Context: ctx,
		Log: func(string, ...any) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search returned %v, want context.Canceled", err)
	}
}

// referenceSearch is the search as it was before trials were skipped by
// canonical form: every trial is an assignment overlaid on tuned through
// sim.Apply and simulated, one after the other. It is the oracle
// WorstNearOptimum must match.
func referenceSearch(tuned sim.Config, ws []Workload, opt Options) (*Result, error) {
	o := opt.withDefaults()
	defs := sim.Params(tuned.Kind)
	optimum := sim.Extract(tuned)
	rng := rand.New(rand.NewSource(o.Seed))
	evaluate := func(a irace.Assignment) (float64, bool, error) {
		cfg, err := sim.Apply(tuned, a)
		if err != nil {
			return 0, false, nil
		}
		_, m, err := meanError(cfg, ws, o)
		return m, err == nil, err
	}
	best := optimum.Clone()
	bestErr, ok, err := evaluate(best)
	if err != nil {
		return nil, err
	}
	if !ok {
		if _, bestErr, err = meanError(tuned, ws, o); err != nil {
			return nil, err
		}
	}
	for r := 0; r <= o.Restarts; r++ {
		cur := optimum.Clone()
		if r > 0 {
			for _, d := range defs {
				ns := neighbors(d, cur[d.Name])
				if len(ns) == 0 || rng.Intn(2) == 0 {
					continue
				}
				cur[d.Name] = ns[rng.Intn(len(ns))]
			}
		}
		curErr, ok, err := evaluate(cur)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for pass := 0; pass < o.MaxPasses; pass++ {
			improved := false
			for _, d := range defs {
				bestVal := cur[d.Name]
				for _, v := range append([]string{optimum[d.Name]}, neighbors(d, optimum[d.Name])...) {
					if v == cur[d.Name] {
						continue
					}
					trial := cur.Clone()
					trial[d.Name] = v
					m, ok, err := evaluate(trial)
					if err != nil {
						return nil, err
					}
					if ok && m > curErr {
						curErr, bestVal, improved = m, v, true
					}
				}
				cur[d.Name] = bestVal
			}
			if !improved {
				break
			}
		}
		if curErr > bestErr {
			bestErr, best = curErr, cur.Clone()
		}
	}
	worst, err := sim.Apply(tuned, best)
	if err != nil {
		worst = tuned
	}
	worst.Name = tuned.Name + "-worst1step"
	errs, mean, err := meanError(worst, ws, o)
	if err != nil {
		return nil, err
	}
	dev := 0
	for _, d := range defs {
		if best[d.Name] != optimum[d.Name] {
			dev++
		}
	}
	return &Result{Config: worst, Errors: errs, MeanError: mean, Deviations: dev}, nil
}

// TestSkippedTrialsChangeNoResult: skipping the trials that repeat the
// current point's canonical form, and building each trial as one Set on the
// current configuration, finds exactly what simulating every trial through
// sim.Apply found — on both board truths (the A72's L2 prefetcher is the
// spatial kind no tunable offers) and on sampled configurations — while
// the search skips some trials.
func TestSkippedTrialsChangeNoResult(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	skipped := 0
	for _, board := range []*hw.Board{p.A53, p.A72} {
		ws := workloads(t, board, 2, 3000)
		space, err := sim.Space(board.TrueConfig().Kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := sim.Apply(board.TrueConfig(), irace.SampleUniform(space, rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, tuned := range []sim.Config{board.TrueConfig(), sampled} {
			opts := Options{Restarts: 2, MaxPasses: 2, Seed: 5}
			want, err := referenceSearch(tuned, ws, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Cache = simcache.New()
			opts.Log = func(format string, args ...any) {
				var n, m int
				if _, err := fmt.Sscanf(fmt.Sprintf(format, args...), "perturb: %d of %d trials skipped", &n, &m); err == nil {
					skipped += n
				}
			}
			got, err := WorstNearOptimum(tuned, ws, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: search found %+v, the reference %+v", tuned.Name, got, want)
			}
		}
	}
	if skipped == 0 {
		t.Error("no trial was skipped: the test does not exercise the skip")
	}
}
