package scenario

import (
	"fmt"

	"racesim/internal/expt"
	"racesim/internal/validate"
)

// transferUnit builds the cross-core transfer study: tune a model against
// one core's micro-benchmark measurements (reusing the full validation
// pipeline), then validate it on the *other* core's held-out SPEC
// workloads, next to the natively tuned model's error on the same
// workloads. The gap quantifies how much of the tuned accuracy is the
// methodology and how much is fitting one specific core.
func transferUnit(sp Spec) Unit {
	return Unit{
		ID:       sp.Name,
		Scenario: sp.Name,
		Step:     sp.Kind,
		Deps: []string{
			"stages:" + sp.TuneCore, "stages:" + sp.EvalCore, "spec:" + sp.EvalCore,
		},
		run: func(rt *Runtime) (expt.Experiment, error) {
			tuneStages, err := rt.Ctx.Stages(sp.TuneCore)
			if err != nil {
				return expt.Experiment{}, err
			}
			evalStages, err := rt.Ctx.Stages(sp.EvalCore)
			if err != nil {
				return expt.Experiment{}, err
			}
			transferred := tuneStages[len(tuneStages)-1].Config
			native := evalStages[len(evalStages)-1].Config
			ws, err := rt.Ctx.Spec(sp.EvalCore)
			if err != nil {
				return expt.Experiment{}, err
			}
			errs, mean, worst, err := rt.Ctx.SpecErrors(transferred, ws)
			if err != nil {
				return expt.Experiment{}, err
			}
			_, nativeMean, _, err := rt.Ctx.SpecErrors(native, ws)
			if err != nil {
				return expt.Experiment{}, err
			}
			title := fmt.Sprintf("Transfer: %s-tuned model on %s workloads", sp.TuneCore, sp.EvalCore)
			t := &expt.Table{Title: title, Headers: []string{"bench", "CPI error", ""}}
			maxV := 0.0
			var names []string
			for _, w := range ws {
				names = append(names, w.Name)
				if errs[w.Name] > maxV {
					maxV = errs[w.Name]
				}
			}
			for _, n := range names {
				t.AddRow(n, expt.Pct(errs[n]), expt.Bar(errs[n], maxV, 40))
			}
			return expt.Experiment{
				ID:    sp.Name,
				Title: title,
				Paper: "beyond the paper: the pipeline tunes and validates one core at a time",
				Measured: fmt.Sprintf("transferred average %s, worst %s (natively tuned %s model: %s)",
					expt.Pct(mean), expt.Pct(worst), sp.EvalCore, expt.Pct(nativeMean)),
				Body: t.Render(),
			}, nil
		},
	}
}

// budgetSweepUnits expands a budget-sweep scenario into one tuning round
// per budget point, each reporting the exact evaluation spend (now capped
// at the budget by the irace accounting fix) and the resulting suite
// error — the ablation behind "how much racing buys at which budget".
func budgetSweepUnits(sp Spec) []Unit {
	units := make([]Unit, 0, len(sp.Budgets))
	for _, budget := range sp.Budgets {
		budget := budget
		units = append(units, Unit{
			ID:       fmt.Sprintf("%s/budget=%d", sp.Name, budget),
			Scenario: sp.Name,
			Step:     fmt.Sprintf("budget=%d", budget),
			Deps:     []string{"measure:" + sp.Core},
			run: func(rt *Runtime) (expt.Experiment, error) {
				board, public, err := expt.Core(rt.Ctx.Platform(), sp.Core)
				if err != nil {
					return expt.Experiment{}, err
				}
				ms, err := rt.Ctx.Measurements(board)
				if err != nil {
					return expt.Experiment{}, err
				}
				seed := rt.Ctx.Options().Seed + sp.SeedOffset
				res, err := validate.Tune(public, ms, rt.Ctx.TuneOptions(budget, seed))
				if err != nil {
					return expt.Experiment{}, err
				}
				id := fmt.Sprintf("%s/budget=%d", sp.Name, budget)
				title := fmt.Sprintf("Budget sweep (%s): one racing round at budget %d", sp.Core, budget)
				t := &expt.Table{Title: title, Headers: []string{"metric", "value"}}
				t.AddRow("budget", fmt.Sprintf("%d", budget))
				t.AddRow("evaluations used", fmt.Sprintf("%d", res.Irace.Evaluations))
				t.AddRow("iterations", fmt.Sprintf("%d", len(res.Irace.Iterations)))
				t.AddRow("best race cost", fmt.Sprintf("%.4f", res.Irace.BestCost))
				mean, err := validate.MeanError(res.Errors)
				if err != nil {
					return expt.Experiment{}, err
				}
				t.AddRow("mean suite error", expt.Pct(mean))
				worst, _, err := validate.MaxError(res.Errors)
				if err != nil {
					return expt.Experiment{}, err
				}
				t.AddRow("worst bench", fmt.Sprintf("%s (%s)", worst.Name, expt.Pct(worst.Error)))
				return expt.Experiment{
					ID:    id,
					Title: title,
					Paper: "beyond the paper: the paper fixes the budget per round (up to 100k trials)",
					Measured: fmt.Sprintf("%d/%d evaluations, mean suite error %s",
						res.Irace.Evaluations, budget, expt.Pct(mean)),
					Body: t.Render(),
				}, nil
			},
		})
	}
	return units
}

// noiseSweepUnits expands a noise-sweep scenario into one
// measure-then-tune pass per noise amplitude: the board is rebuilt with
// the scenario's noise level over the same hidden ground truth, the suite
// is re-measured, and one tuning round runs against the noisier
// counters. Rising tuned error with rising noise bounds how much
// measurement quality the methodology needs.
func noiseSweepUnits(sp Spec) []Unit {
	units := make([]Unit, 0, len(sp.NoiseLevels))
	for li, level := range sp.NoiseLevels {
		li, level := li, level
		units = append(units, Unit{
			ID:       fmt.Sprintf("%s/noise=%g", sp.Name, level),
			Scenario: sp.Name,
			Step:     fmt.Sprintf("noise=%g", level),
			run: func(rt *Runtime) (expt.Experiment, error) {
				base, public, err := expt.Core(rt.Ctx.Platform(), sp.Core)
				if err != nil {
					return expt.Experiment{}, err
				}
				board, err := rt.noisyBoard(base, level)
				if err != nil {
					return expt.Experiment{}, err
				}
				o := rt.Ctx.Options()
				ms, err := rt.Ctx.Measurements(board)
				if err != nil {
					return expt.Experiment{}, err
				}
				untuned, err := validate.ErrorsWith(public, ms, rt.Ctx.Runner().Cache(), rt.Ctx.Runner().Parallelism())
				if err != nil {
					return expt.Experiment{}, err
				}
				budget := sp.Budget
				if budget <= 0 {
					budget = o.BudgetRound1
				}
				res, err := validate.Tune(public, ms, rt.Ctx.TuneOptions(budget, o.Seed+sp.SeedOffset+int64(li)))
				if err != nil {
					return expt.Experiment{}, err
				}
				id := fmt.Sprintf("%s/noise=%g", sp.Name, level)
				title := fmt.Sprintf("Noise sweep (%s): ±%.1f%% measurement noise", sp.Core, level*100)
				t := &expt.Table{Title: title, Headers: []string{"stage", "mean error", ""}}
				um, err := validate.MeanError(untuned)
				if err != nil {
					return expt.Experiment{}, err
				}
				tm, err := validate.MeanError(res.Errors)
				if err != nil {
					return expt.Experiment{}, err
				}
				maxV := um
				if tm > maxV {
					maxV = tm
				}
				t.AddRow("untuned", expt.Pct(um), expt.Bar(um, maxV, 40))
				t.AddRow("tuned", expt.Pct(tm), expt.Bar(tm, maxV, 40))
				return expt.Experiment{
					ID:    id,
					Title: title,
					Paper: "beyond the paper: the reference board measures with fixed ±1% noise",
					Measured: fmt.Sprintf("noise ±%.1f%%: untuned %s -> tuned %s (%d/%d evaluations)",
						level*100, expt.Pct(um), expt.Pct(tm), res.Irace.Evaluations, budget),
					Body: t.Render(),
				}, nil
			},
		})
	}
	return units
}
