package validate

import (
	"context"
	"runtime"

	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
)

// IndirectParams are the search-space knobs that only exist once the model
// supports indirect-branch prediction (the Sec. IV-B fix).
var IndirectParams = map[string]bool{
	"branch.indirect":         true,
	"branch.indirect_entries": true,
	"branch.indirect_history": true,
}

// PrefetchParams are the extended prefetcher options added in step 6
// ("we provide the tuning algorithm with further options ... including
// stride and GHB prefetching").
var PrefetchParams = map[string]bool{
	"l1d.prefetch.kind": true, "l1d.prefetch.degree": true,
	"l1d.prefetch.distance": true, "l1d.prefetch.table": true,
	"l1d.prefetch.on_hit": true,
	"l2.prefetch.kind":    true, "l2.prefetch.degree": true,
	"l2.prefetch.distance": true, "l2.prefetch.table": true,
	"l2.prefetch.on_hit": true,
}

func union(ms ...map[string]bool) map[string]bool {
	out := map[string]bool{}
	for _, m := range ms {
		for k, v := range m {
			if v {
				out[k] = true
			}
		}
	}
	return out
}

// Stage is one step of the validation methodology (Fig. 1): optionally
// the abstraction fixes, then a tuning round from the configuration the
// stage before it ended with, or only an evaluation of that configuration.
type Stage struct {
	Name string
	// Fix applies methodology step 6 before the stage: the decoder bug is
	// cleared, lmbench estimates seed the latencies, and the stage is
	// measured on the suite with initialized arrays. A stage without Fix
	// is measured on the raw suite.
	Fix bool
	// Budget is the stage's irace budget; 0 evaluates without tuning.
	Budget int
	// Exclude removes parameters from the stage's search space.
	Exclude map[string]bool
	// Weights shapes the stage's tuning cost function.
	Weights CostWeights
}

// PaperStages is the paper's Figure 1 flow (Sec. IV-B):
//
//  1. "untuned"  — public best-guess model (steps 1–3), buggy decoder, no
//     indirect predictor, uninitialized arrays.
//  2. "round1"   — irace over the restricted space (no indirect knobs, no
//     extended prefetchers): specification errors shrink, component
//     errors remain (step 4 + first pass of step 5).
//  3. "fixed"    — abstraction fixes applied (decoder bug fixed, indirect
//     predictor available, arrays initialized, prefetcher options added,
//     lmbench-seeded latencies) and a second tuning round (steps 6 + 4).
func PaperStages(budget1, budget2 int) []Stage {
	return []Stage{
		{Name: "untuned"},
		{Name: "round1", Budget: budget1, Exclude: union(IndirectParams, PrefetchParams)},
		{Name: "fixed", Fix: true, Budget: budget2, Weights: CostWeights{BranchMPKI: 0.2}},
	}
}

// StageResult is the outcome of one stage.
type StageResult struct {
	Name      string
	Config    sim.Config
	Errors    []BenchError
	MeanError float64
	// Ms are the board measurements the stage's errors were evaluated
	// against (the raw or re-measured suite) — the input a statistical
	// ValidationReport needs beyond the scalar errors.
	Ms []Measurement
	// Irace is the stage's tuning race; nil for an evaluate-only stage.
	Irace *irace.Result
}

// PipelineOptions configures a run of stages.
type PipelineOptions struct {
	// Seed is the first tuning round's; the k-th round (from 0) draws
	// Seed+k.
	Seed int64
	// UbenchScale sizes both suites; 0 means ubench.DefaultScale.
	UbenchScale float64
	// Cache, when non-nil, memoizes every simulation of the pipeline
	// (tuning races and per-stage error evaluations). The board keeps its
	// own replays wherever it was told to (hw.Board.WithCache).
	Cache *simcache.Cache
	// TraceMemo, when non-nil, is where the pipeline's inputs (both
	// suites, the lmbench chases) are fetched from, so whoever shares the
	// memo — the other core's pipeline, Table I, Fig. 2 — generates each
	// of them once. Nil generates.
	TraceMemo *tracememo.Memo
	// Parallelism bounds concurrent simulations (<=0: GOMAXPROCS).
	Parallelism int
	// Context, when non-nil, cancels the pipeline: checked before each
	// stage and threaded into the tuning rounds (which check per race
	// step).
	Context context.Context
	Log     func(format string, args ...any)
}

// ctxErr is the pipeline's cancellation probe (nil Context never cancels).
func (o PipelineOptions) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Pipeline runs stages for one core, each from the configuration the stage
// before it ended with (the first from base), and returns one result per
// stage. Each suite a stage asks for — raw, or initialized under Fix — is
// measured on the board once per call, mirroring how the paper re-measured
// after initializing the arrays.
func Pipeline(board *hw.Board, base sim.Config, stages []Stage, opt PipelineOptions) ([]StageResult, error) {
	o := opt.withDefaults()
	suites := map[bool][]Measurement{} // by InitArrays
	out := make([]StageResult, 0, len(stages))
	cfg, rounds := base, int64(0)
	for _, st := range stages {
		if err := o.ctxErr(); err != nil {
			return nil, err
		}
		var err error
		if st.Fix {
			cfg.DecoderDepBug = false
			if cfg, err = SeedLatencies(cfg, board, o.TraceMemo, o.Parallelism); err != nil {
				return nil, err
			}
		}
		ms, ok := suites[st.Fix]
		if !ok {
			ms, err = MeasureSuiteWith(board, ubench.Options{Scale: o.UbenchScale, InitArrays: st.Fix}, o.TraceMemo, o.Parallelism)
			if err != nil {
				return nil, err
			}
			suites[st.Fix] = ms
		}
		res := StageResult{Name: st.Name, Config: cfg, Ms: ms}
		if st.Budget > 0 {
			tuned, err := Tune(cfg, ms, TuneOptions{
				Budget:        st.Budget,
				Seed:          o.Seed + rounds,
				Weights:       st.Weights,
				ExcludeParams: st.Exclude,
				Cache:         o.Cache,
				Parallelism:   o.Parallelism,
				Context:       o.Context,
				Log:           o.Log,
			})
			if err != nil {
				return nil, err
			}
			rounds++
			res.Config, res.Errors, res.Irace = tuned.Tuned, tuned.Errors, tuned.Irace
		} else if res.Errors, err = ErrorsWith(cfg, ms, o.Cache, o.Parallelism); err != nil {
			return nil, err
		}
		if res.MeanError, err = MeanError(res.Errors); err != nil {
			return nil, err
		}
		o.Log("validate: %s mean CPI error %.1f%%", st.Name, res.MeanError*100)
		out = append(out, res)
		cfg = res.Config
	}
	return out, nil
}
