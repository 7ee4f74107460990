package validate

import (
	"context"
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
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// sampled draws n valid configurations of base's kind from its tuning
// space.
func sampled(t *testing.T, base sim.Config, n int, rng *rand.Rand) []sim.Config {
	t.Helper()
	space, err := sim.Space(base.Kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []sim.Config
	for len(out) < n {
		if cfg, err := sim.Apply(base, irace.SampleUniform(space, rng)); err == nil {
			cfg.Name = fmt.Sprintf("%s-sample-%d", base.Kind, len(out))
			out = append(out, cfg)
		}
	}
	return out
}

// TestScoreIsTheDirectReplay: every pair of Score's grid is the
// configuration's own replay of the measurement's trace, scored with
// hw.Counters.CPIError into a row carrying the measurement's name and
// category, configuration-major — for sampled in-order and
// out-of-order configurations over suite and held-out measurements, with
// no cache, a cold one and a warm one, one worker or four. Counters with
// no relative error fail the grid, naming the measurement. Run under
// -race in CI.
func TestScoreIsTheDirectReplay(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)[:8]
	for _, prof := range workload.Profiles()[:3] {
		tr, err := workload.Generate(prof, workload.Options{Events: 4000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.A53.Measure(tr)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, Measurement{Bench: ubench.Bench{Name: prof.Name, Category: "spec"}, Trace: tr, Counters: c})
	}
	rng := rand.New(rand.NewSource(53))
	cfgs := append(sampled(t, sim.PublicA53(), 3, rng), sampled(t, sim.PublicA72(), 3, rng)...)

	var want []float64
	var wantRs []core.Result
	for _, cfg := range cfgs {
		for _, m := range ms {
			res, err := cfg.Run(m.Trace)
			if err != nil {
				t.Fatal(err)
			}
			e, err := m.Counters.CPIError(&res)
			if err != nil {
				t.Fatal(err)
			}
			wantRs, want = append(wantRs, res), append(want, e)
		}
	}
	for _, par := range []int{1, 4} {
		cache := simcache.New()
		for _, run := range []struct {
			name  string
			cache *simcache.Cache
		}{{"nil", nil}, {"cold", cache}, {"warm", cache}} {
			rs := make([]core.Result, len(want))
			rows, err := Score(context.Background(), cfgs, ms, run.cache, par, rs)
			if err != nil {
				t.Fatalf("%s cache, parallelism %d: %v", run.name, par, err)
			}
			if len(rows) != len(want) {
				t.Fatalf("%s cache, parallelism %d: %d errors, want %d", run.name, par, len(rows), len(want))
			}
			// A caller that reads only rows gets the same rows from
			// recycled storage.
			if only, err := Score(context.Background(), cfgs, ms, run.cache, par, nil); err != nil || !reflect.DeepEqual(only, rows) {
				t.Errorf("%s cache, parallelism %d: rows-only Score gave %v (%v), want the rows of the full one", run.name, par, only, err)
			}
			for k := range want {
				cfg, m := cfgs[k/len(ms)], ms[k%len(ms)]
				if !reflect.DeepEqual(rs[k], wantRs[k]) || rows[k].Error != want[k] {
					t.Errorf("%s cache, parallelism %d: %s on %s: error %v, want %v (or its result differs from the direct replay)",
						run.name, par, cfg.Name, m.Bench.Name, rows[k].Error, want[k])
				}
				if rows[k].Name != m.Bench.Name || rows[k].Category != m.Bench.Category {
					t.Errorf("%s cache, parallelism %d: row %d of %s is %s (%s), want its measurement's %s (%s)",
						run.name, par, k, cfg.Name, rows[k].Name, rows[k].Category, m.Bench.Name, m.Bench.Category)
				}
			}
		}
		if st := cache.Stats(); st.Misses != uint64(len(want)) {
			t.Errorf("parallelism %d: %d simulations over a cold and a warm pass, want %d", par, st.Misses, len(want))
		}
	}

	empty := trace.New("no-events", false)
	c, err := p.A53.Measure(empty)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(ms[:2:2], Measurement{Bench: ubench.Bench{Name: "empty-bench"}, Trace: empty, Counters: c})
	if _, err := Score(context.Background(), cfgs, bad, nil, 4, nil); err == nil || !strings.Contains(err.Error(), "empty-bench") {
		t.Errorf("a measurement with CPI %v scored with error %v; want a failure naming empty-bench", c.CPI, err)
	}
}
