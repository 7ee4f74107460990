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

// budgetSweepUnits expands a budget-sweep scenario into one unit per
// budget point, each a one-stage flow — a single tuning round — reporting
// the exact evaluation spend (capped at the budget by the irace
// accounting) and the resulting suite error: the ablation behind "how much
// racing buys at which budget".
func budgetSweepUnits(sp Spec) []Unit {
	units := make([]Unit, 0, len(sp.Budgets))
	for _, budget := range sp.Budgets {
		id := fmt.Sprintf("%s/budget=%d", sp.Name, budget)
		units = append(units, Unit{
			ID:       id,
			Scenario: sp.Name,
			Step:     fmt.Sprintf("budget=%d", budget),
			Deps:     []string{"measure:" + sp.Core},
			run: func(rt *Runtime) (expt.Experiment, error) {
				board, public, err := expt.Core(rt.Ctx.Platform(), sp.Core)
				if err != nil {
					return expt.Experiment{}, err
				}
				st, err := rt.Ctx.Run(board, public, []validate.Stage{{Name: "tuned", Budget: budget}},
					rt.Ctx.Options().Seed+sp.SeedOffset)
				if err != nil {
					return expt.Experiment{}, err
				}
				race := st[0].Irace
				worst, _, err := validate.MaxError(st[0].Errors)
				if err != nil {
					return expt.Experiment{}, err
				}
				title := fmt.Sprintf("Budget sweep (%s): one racing round at budget %d", sp.Core, budget)
				t := &expt.Table{Title: title, Headers: []string{"metric", "value"}}
				t.AddRow("budget", fmt.Sprintf("%d", budget))
				t.AddRow("evaluations used", fmt.Sprintf("%d", race.Evaluations))
				t.AddRow("iterations", fmt.Sprintf("%d", len(race.Iterations)))
				t.AddRow("best race cost", fmt.Sprintf("%.4f", race.BestCost))
				t.AddRow("mean suite error", expt.Pct(st[0].MeanError))
				t.AddRow("worst bench", fmt.Sprintf("%s (%s)", worst.Name, expt.Pct(worst.Error)))
				return expt.Experiment{
					ID:    id,
					Title: title,
					Paper: "beyond the paper: the paper fixes the budget per round (up to 100k trials)",
					Measured: fmt.Sprintf("%d/%d evaluations, mean suite error %s",
						race.Evaluations, budget, expt.Pct(st[0].MeanError)),
					Body: t.Render(),
				}, nil
			},
		})
	}
	return units
}

// noiseSweepUnits expands a noise-sweep scenario into one unit per noise
// amplitude: the board is rebuilt with the scenario's noise level over the
// same hidden ground truth, and the two-stage flow untuned, tuned runs on
// it — the suite measured on the noisier counters, the public model
// evaluated, one tuning round. Rising tuned error with rising noise bounds
// how much measurement quality the methodology needs.
func noiseSweepUnits(sp Spec) []Unit {
	units := make([]Unit, 0, len(sp.NoiseLevels))
	for li, level := range sp.NoiseLevels {
		id := fmt.Sprintf("%s/noise=%g", sp.Name, level)
		units = append(units, Unit{
			ID:       id,
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
				budget := sp.Budget
				if budget <= 0 {
					budget = o.BudgetRound1
				}
				st, err := rt.Ctx.Run(board, public, []validate.Stage{{Name: "untuned"}, {Name: "tuned", Budget: budget}},
					o.Seed+sp.SeedOffset+int64(li))
				if err != nil {
					return expt.Experiment{}, err
				}
				untuned, tuned := st[0].MeanError, st[1].MeanError
				title := fmt.Sprintf("Noise sweep (%s): ±%.1f%% measurement noise", sp.Core, level*100)
				t := &expt.Table{Title: title, Headers: []string{"stage", "mean error", ""}}
				for _, s := range st {
					t.AddRow(s.Name, expt.Pct(s.MeanError), expt.Bar(s.MeanError, max(untuned, tuned), 40))
				}
				return expt.Experiment{
					ID:    id,
					Title: title,
					Paper: "beyond the paper: the reference board measures with fixed ±1% noise",
					Measured: fmt.Sprintf("noise ±%.1f%%: untuned %s -> tuned %s (%d/%d evaluations)",
						level*100, expt.Pct(untuned), expt.Pct(tuned), st[1].Irace.Evaluations, budget),
					Body: t.Render(),
				}, nil
			},
		})
	}
	return units
}
