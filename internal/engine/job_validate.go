package engine

import (
	"cmp"
	"fmt"

	"racesim/internal/expt"
	"racesim/internal/report"
	"racesim/internal/validate"
)

func (e *env) validateJob(j *ValidateJob) error {
	if j == nil {
		j = &ValidateJob{}
	}
	logf := func(format string, args ...any) {
		if !j.Quiet {
			e.eprintf(format+"\n", args...)
		}
	}
	core := cmp.Or(j.Core, "a53")
	// The paper set's context at the job's sizes: its pipeline, seed rule
	// and budget defaults are the ones Figs. 4–8 score.
	x, err := expt.NewContext(expt.Options{
		UbenchScale:  j.Scale,
		BudgetRound1: j.Budget1,
		BudgetRound2: j.Budget2,
		Seed:         j.Seed,
		Parallelism:  e.par,
		Cache:        e.cache,
		TraceMemo:    e.memo,
		Context:      e.ctx,
		Log:          logf,
	})
	if err != nil {
		return err
	}
	board, _, err := expt.Core(x.Platform(), core)
	if err != nil {
		return err
	}
	// Parse the accuracy budget up front so a bad budget fails before
	// hours of tuning, not after.
	var budget report.Budget
	if len(j.BudgetJSON) > 0 {
		if budget, err = report.ParseBudget(j.BudgetJSON); err != nil {
			return err
		}
	}

	if err := e.openSnapshot("validate", logf); err != nil {
		return err
	}
	stages, err := x.Stages(core)
	if err != nil {
		return err
	}

	e.printf("\n%-10s %-12s %-12s\n", "stage", "mean error", "worst bench")
	for _, s := range stages {
		worst, _, err := validate.MaxError(s.Errors)
		if err != nil {
			return err
		}
		e.printf("%-10s %-12s %s (%.1f%%)\n", s.Name,
			fmt.Sprintf("%.1f%%", s.MeanError*100), worst.Name, worst.Error*100)
	}
	final := stages[len(stages)-1]

	// The statistical accuracy report of the final model, judged against
	// the resolved budget: the job's one per-benchmark accuracy view. Its
	// samples are the final stage's pairs, already in the cache. Rendered
	// text joins the artifact; the JSON rides in the Result.
	samples, plaus, err := validate.CollectSamples(final.Config, final.Ms, e.cache, e.par)
	if err != nil {
		return err
	}
	br, err := report.Build(board.Name, string(final.Config.Kind), final.Name, samples, plaus, budget)
	if err != nil {
		return err
	}
	rep := report.New(br)
	e.printf("\n%s", rep.Render())
	data, err := rep.MarshalIndent()
	if err != nil {
		return err
	}
	e.report = data

	st := e.cache.Stats()
	e.eprintf("cache: %d hits, %d misses, %d shared in-flight (%.1f%% hit rate), %d entries\n",
		st.Hits, st.Misses, st.Shared, st.HitRate()*100, st.Entries)
	e.workSummary()
	e.traceSummary()
	// Saved here, not on the way out, so its progress line keeps its place.
	if err := e.snap.Save(); err != nil {
		return err
	}

	// The tuned configuration rides in the Result as the bytes of its
	// config file.
	if e.tunedConfig, err = final.Config.MarshalFile(); err != nil {
		return err
	}
	// The gate fires last: the Result already carries the report and the
	// tuned configuration, and the cache snapshot is saved, when a
	// violation fails the job, so CI shows exactly what missed the budget.
	if j.Gate {
		if err := rep.Err(); err != nil {
			return err
		}
	}
	return nil
}
