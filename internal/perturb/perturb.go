package perturb

import (
	"context"
	"fmt"
	"math/rand"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/validate"
)

// Workload pairs an evaluation trace with its board measurement. Category
// is the category its rows in Result.Errors carry.
type Workload struct {
	Name     string
	Category ubench.Category
	Trace    *trace.Trace
	Counters hw.Counters
}

// DefaultRestarts is the number of random starting points a search makes
// when Options.Restarts is zero.
const DefaultRestarts = 2

// Options tunes the search.
type Options struct {
	// Restarts is the number of random single-step starting points
	// (besides the optimum itself); 0 means DefaultRestarts.
	Restarts int
	// MaxPasses bounds coordinate-ascent sweeps per restart.
	MaxPasses int
	Seed      int64
	// Cache, when non-nil, memoizes simulation results; the ascent
	// re-visits many configurations (the optimum value of each parameter,
	// repeatedly), so sharing the experiment-wide cache pays directly.
	Cache *simcache.Cache
	// Parallelism bounds concurrent workload simulations per evaluated
	// configuration (<=1: sequential).
	Parallelism int
	// Context, when non-nil, cancels the search: the batch in flight stops
	// dispatching and WorstNearOptimum returns the context's error.
	Context context.Context
	Log     func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Restarts <= 0 {
		o.Restarts = DefaultRestarts
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 2
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Result is the worst near-optimum configuration found.
type Result struct {
	Config sim.Config
	// Errors are Config's rows (validate.Score), one per workload, aligned
	// with the input slice.
	Errors    []validate.BenchError
	MeanError float64
	// Deviations counts parameters that differ from the optimum.
	Deviations int
}

// measurements converts the workloads to what validate.Score scores.
func measurements(ws []Workload) []validate.Measurement {
	ms := make([]validate.Measurement, len(ws))
	for i, w := range ws {
		ms[i] = validate.Measurement{Bench: ubench.Bench{Name: w.Name, Category: w.Category}, Trace: w.Trace, Counters: w.Counters}
	}
	return ms
}

// meanErrors scores every configuration against all workloads as one
// len(cfgs) x len(ms) grid (validate.Score), in parallel up to
// o.Parallelism, memoizing through o.Cache when set. It returns each
// configuration's mean error (validate.MeanError) and the grid's rows,
// configuration-major. Every configuration here has passed sim.Apply's
// validation, so a simulation that fails says the simulator or its input
// is broken (a tape replay that desynchronized, a deferred trace that is
// not what was remembered), not that the configuration is a bad
// neighbour: it fails the whole batch.
func meanErrors(cfgs []sim.Config, ms []validate.Measurement, o Options) ([]float64, []validate.BenchError, error) {
	rows, err := validate.Score(o.Context, cfgs, ms, o.Cache, o.Parallelism, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("perturb: %w", err)
	}
	means := make([]float64, len(cfgs))
	for i := range means {
		if means[i], err = validate.MeanError(rows[i*len(ms) : (i+1)*len(ms)]); err != nil {
			return nil, nil, fmt.Errorf("perturb: %w", err)
		}
	}
	return means, rows, nil
}

// meanError scores one configuration against all workloads.
func meanError(cfg sim.Config, ms []validate.Measurement, o Options) ([]validate.BenchError, float64, error) {
	means, rows, err := meanErrors([]sim.Config{cfg}, ms, o)
	if err != nil {
		return nil, 0, err
	}
	return rows, means[0], nil
}

// neighbors returns the value strings one step away for an ordered
// parameter (or nothing for categorical parameters, which the study keeps
// at their optimum).
func neighbors(d sim.ParamDef, current string) []string {
	if !d.Ordered {
		return nil
	}
	idx := -1
	for i, v := range d.Values {
		if v == current {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	var out []string
	if idx > 0 {
		out = append(out, d.Values[idx-1])
	}
	if idx+1 < len(d.Values) {
		out = append(out, d.Values[idx+1])
	}
	return out
}

// WorstNearOptimum searches for the worst configuration within one step of
// the tuned optimum, evaluated on the given workloads. A parameter
// combination sim.Apply rejects is skipped; a simulation that fails aborts
// the search with its error.
func WorstNearOptimum(tuned sim.Config, ws []Workload, opt Options) (*Result, error) {
	o := opt.withDefaults()
	ms := measurements(ws)
	defs := sim.Params(tuned.Kind)
	optimum := sim.Extract(tuned)
	rng := rand.New(rand.NewSource(o.Seed))

	apply := func(a irace.Assignment) (sim.Config, bool) {
		cfg, err := sim.Apply(tuned, a)
		if err != nil {
			return sim.Config{}, false
		}
		return cfg, true
	}

	best := optimum.Clone()
	bestCfg, ok := apply(best)
	if !ok {
		bestCfg = tuned
	}
	_, bestErr, err := meanError(bestCfg, ms, o)
	if err != nil {
		return nil, err
	}

	start := func(r int) irace.Assignment {
		a := optimum.Clone()
		if r == 0 {
			return a
		}
		// Random single-step start: perturb each ordered param with
		// probability 1/2.
		for _, d := range defs {
			ns := neighbors(d, a[d.Name])
			if len(ns) == 0 || rng.Intn(2) == 0 {
				continue
			}
			a[d.Name] = ns[rng.Intn(len(ns))]
		}
		return a
	}

	// A trial whose canonical form equals the current point's is the same
	// simulation as the current point: its mean would be exactly curErr,
	// which the ascent never accepts, so it is skipped unsimulated.
	trials, skipped := 0, 0
	var vals []string     // a batch's trial values,
	var cfgs []sim.Config // its configurations: reused batch after batch
	for r := 0; r <= o.Restarts; r++ {
		cur := start(r)
		curCfg, ok := apply(cur)
		if !ok {
			continue
		}
		_, curErr, err := meanError(curCfg, ms, o)
		if err != nil {
			return nil, err
		}
		curCanon := sim.Canonical(curCfg)
		for pass := 0; pass < o.MaxPasses; pass++ {
			improved := false
			for _, d := range defs {
				// Candidate values: optimum value and its one-step
				// neighbours (the current value is among them).
				cands := append([]string{optimum[d.Name]}, neighbors(d, optimum[d.Name])...)
				// The trials differ from cur in this parameter only and do
				// not depend on each other, so they are simulated as one
				// parallel batch; the ascent rule then reads them in
				// candidate order, exactly as if evaluated one by one. Each
				// Set writes only d's field, so a trial is the configuration
				// sim.Apply(tuned, cur with d moved) would build.
				vals, cfgs = vals[:0], cfgs[:0]
				for _, v := range cands {
					if v == cur[d.Name] {
						continue
					}
					trial := curCfg
					if d.Set(&trial, v) != nil || core.Config(trial).Validate() != nil {
						continue
					}
					trials++
					if sim.Canonical(trial) == curCanon {
						skipped++
						continue
					}
					vals = append(vals, v)
					cfgs = append(cfgs, trial)
				}
				means, _, err := meanErrors(cfgs, ms, o)
				if err != nil {
					return nil, err
				}
				moved := false
				for i, mean := range means {
					if mean > curErr {
						curErr = mean
						cur[d.Name], curCfg = vals[i], cfgs[i]
						moved = true
					}
				}
				if moved {
					improved = true
					curCanon = sim.Canonical(curCfg)
				}
			}
			if !improved {
				break
			}
		}
		o.Log("perturb: restart %d reached mean error %.1f%%", r, curErr*100)
		if curErr > bestErr {
			bestErr = curErr
			best = cur.Clone()
		}
	}
	o.Log("perturb: %d of %d trials skipped (unread parameter)", skipped, trials)

	worstCfg, ok := apply(best)
	if !ok {
		worstCfg = tuned
	}
	worstCfg.Name = tuned.Name + "-worst1step"
	errs, mean, err := meanError(worstCfg, ms, o)
	if err != nil {
		return nil, err
	}
	// Deviations counts assignments, read or not: a parameter the tuned
	// kinds do not read is counted too (docs/validation.md). Only the
	// categorical kinds decide what is read, and they never move here.
	dev, read := 0, 0
	for _, d := range defs {
		if best[d.Name] != optimum[d.Name] {
			dev++
			if d.Active(&tuned) {
				read++
			}
		}
	}
	o.Log("perturb: %d parameters deviate, %d of them read by the models", dev, read)
	return &Result{Config: worstCfg, Errors: errs, MeanError: mean, Deviations: dev}, nil
}
