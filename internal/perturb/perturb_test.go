package perturb

import (
	"context"
	"errors"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/workload"
)

func workloads(t *testing.T, board *hw.Board, n int) []Workload {
	t.Helper()
	var out []Workload
	for _, p := range workload.Profiles()[:n] {
		tr, err := workload.Generate(p, workload.Options{Events: 20_000})
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
	ws := workloads(t, p.A53, 4)
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
	defs := sim.Params(sim.InOrder)
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
	ws := workloads(t, p.A53, 2)
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
	_, err = WorstNearOptimum(p.A53.TrueConfig(), workloads(t, p.A53, 2), Options{
		Restarts: 1, MaxPasses: 1, Seed: 1, Context: ctx,
		Log: func(string, ...any) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search returned %v, want context.Canceled", err)
	}
}
