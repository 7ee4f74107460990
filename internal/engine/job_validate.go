package engine

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

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
	// Resolve the accuracy budget up front so a bad budget file fails
	// before hours of tuning, not after.
	budget, err := resolveBudget(j)
	if err != nil {
		return err
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
	// text joins the artifact; the JSON rides in the Result (and the serve
	// report endpoint) and optionally persists to the diffable report
	// history directory.
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
	if j.ReportDir != "" {
		if err := os.MkdirAll(j.ReportDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(j.ReportDir, "validate-"+core+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		e.eprintf("wrote validation report to %s\n", path)
	}

	st := e.cache.Stats()
	e.eprintf("cache: %d hits, %d misses, %d shared in-flight (%.1f%% hit rate), %d entries\n",
		st.Hits, st.Misses, st.Shared, st.HitRate()*100, st.Entries)
	e.workSummary()
	e.traceSummary()
	// Saved here, not on the way out, so its progress line keeps its place.
	if err := e.snap.Save(); err != nil {
		return err
	}

	// The tuned configuration always rides along in the Result (the HTTP
	// path has no shared filesystem); OutPath additionally writes the same
	// indented JSON to a file, as the standalone binary did.
	cfgJSON, err := json.MarshalIndent(final.Config, "", "  ")
	if err != nil {
		return err
	}
	e.tunedConfig = append(cfgJSON, '\n')
	if j.OutPath != "" {
		if err := final.Config.MarshalJSONFile(j.OutPath); err != nil {
			return err
		}
		e.eprintf("wrote tuned configuration to %s\n", j.OutPath)
	}
	// The gate fires last: every artifact (tuned config, report history,
	// cache snapshot) is already on disk when a violation fails the job,
	// so CI logs show exactly what missed the budget.
	if j.Gate {
		if err := rep.Err(); err != nil {
			return err
		}
	}
	return nil
}

// resolveBudget picks the job's accuracy budget: inline JSON wins, then
// a budget file, then the empty (unconstrained) budget.
func resolveBudget(j *ValidateJob) (report.Budget, error) {
	switch {
	case len(j.BudgetJSON) > 0 && j.BudgetPath != "":
		return report.Budget{}, fmt.Errorf("validate job sets both budget_json and budget_path")
	case len(j.BudgetJSON) > 0:
		return report.ParseBudget(j.BudgetJSON)
	case j.BudgetPath != "":
		return report.LoadBudget(j.BudgetPath)
	}
	return report.Budget{}, nil
}
