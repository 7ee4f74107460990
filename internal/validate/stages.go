package validate

import (
	"context"
	"runtime"

	"racesim/internal/hw"
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

// StageResult captures one stage of the staged validation narrative.
type StageResult struct {
	Name      string
	Config    sim.Config
	Errors    []BenchError
	MeanError float64
	// Ms are the board measurements the stage's errors were evaluated
	// against (the raw or re-measured suite) — the input a statistical
	// ValidationReport needs beyond the scalar errors.
	Ms []Measurement
}

// PipelineOptions configures the full staged run.
type PipelineOptions struct {
	// BudgetRound1/BudgetRound2 are irace budgets for the two tuning
	// rounds.
	BudgetRound1 int
	BudgetRound2 int
	Seed         int64
	UbenchScale  float64
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
	// Context, when non-nil, cancels the pipeline: checked between stages
	// and threaded into the tuning rounds (which check per race step).
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
	if o.BudgetRound1 <= 0 {
		o.BudgetRound1 = 3000
	}
	if o.BudgetRound2 <= 0 {
		o.BudgetRound2 = 4000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Pipeline is the complete Figure 1 flow for one core. Stages:
//
//  1. "untuned"  — public best-guess model (steps 1–3), buggy decoder, no
//     indirect predictor, uninitialized arrays.
//  2. "round1"   — irace over the restricted space (no indirect knobs, no
//     extended prefetchers): specification errors shrink, component
//     errors remain (step 4 + first pass of step 5).
//  3. "fixed"    — abstraction fixes applied (decoder bug fixed, indirect
//     predictor available, arrays initialized, prefetcher options added,
//     lmbench-seeded latencies) and a second tuning round (steps 6 + 4).
//
// The returned stages carry per-benchmark errors evaluated against
// measurements taken with the stage's own benchmark options, mirroring how
// the paper re-measured after initializing the arrays.
func Pipeline(board *hw.Board, public sim.Config, opt PipelineOptions) ([]StageResult, error) {
	o := opt.withDefaults()

	// Stage 1: untuned public model on raw (uninitialized-array) traces.
	rawMs, err := MeasureSuiteWith(board, ubench.Options{Scale: o.UbenchScale}, o.TraceMemo, o.Parallelism)
	if err != nil {
		return nil, err
	}
	untunedErrs, err := ErrorsWith(public, rawMs, o.Cache, o.Parallelism)
	if err != nil {
		return nil, err
	}
	untunedMean, err := MeanError(untunedErrs)
	if err != nil {
		return nil, err
	}
	stages := []StageResult{{
		Name: "untuned", Config: public,
		Errors: untunedErrs, MeanError: untunedMean, Ms: rawMs,
	}}
	o.Log("validate: untuned mean CPI error %.1f%%", stages[0].MeanError*100)

	// Stage 2: first tuning round over the restricted space.
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	round1, err := Tune(public, rawMs, TuneOptions{
		Budget:        o.BudgetRound1,
		Seed:          o.Seed,
		ExcludeParams: union(IndirectParams, PrefetchParams),
		Cache:         o.Cache,
		Parallelism:   o.Parallelism,
		Context:       o.Context,
		Log:           o.Log,
	})
	if err != nil {
		return nil, err
	}
	round1Mean, err := MeanError(round1.Errors)
	if err != nil {
		return nil, err
	}
	stages = append(stages, StageResult{
		Name: "round1", Config: round1.Tuned,
		Errors: round1.Errors, MeanError: round1Mean, Ms: rawMs,
	})
	o.Log("validate: round-1 tuned mean CPI error %.1f%%", stages[1].MeanError*100)

	// Stage 3: abstraction fixes + re-measured (initialized) suite +
	// full-space tuning round.
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	fixedBase := round1.Tuned
	fixedBase.DecoderDepBug = false
	fixedBase, err = SeedLatencies(fixedBase, board, o.TraceMemo, o.Parallelism)
	if err != nil {
		return nil, err
	}
	initMs, err := MeasureSuiteWith(board, ubench.Options{Scale: o.UbenchScale, InitArrays: true}, o.TraceMemo, o.Parallelism)
	if err != nil {
		return nil, err
	}
	round2, err := Tune(fixedBase, initMs, TuneOptions{
		Budget:      o.BudgetRound2,
		Seed:        o.Seed + 1,
		Weights:     CostWeights{BranchMPKI: 0.2},
		Cache:       o.Cache,
		Parallelism: o.Parallelism,
		Context:     o.Context,
		Log:         o.Log,
	})
	if err != nil {
		return nil, err
	}
	round2Mean, err := MeanError(round2.Errors)
	if err != nil {
		return nil, err
	}
	stages = append(stages, StageResult{
		Name: "fixed", Config: round2.Tuned,
		Errors: round2.Errors, MeanError: round2Mean, Ms: initMs,
	})
	o.Log("validate: final tuned mean CPI error %.1f%%", stages[2].MeanError*100)
	return stages, nil
}
