package engine

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"racesim/internal/expt"
	"racesim/internal/report"
	"racesim/internal/ubench"
	"racesim/internal/validate"
)

func (e *env) validateJob(j *ValidateJob) error {
	if j == nil {
		j = &ValidateJob{}
	}
	// Progress goes to stdout, as the standalone validate binary always
	// printed it (the tuned-config table is the artifact either way).
	logf := func(format string, args ...any) {
		if !j.Quiet {
			e.printf(format+"\n", args...)
		}
	}
	x, err := expt.NewContext(expt.Options{
		UbenchScale: j.Scale,
		Parallelism: e.par,
		Cache:       e.cache,
		TraceMemo:   e.memo,
		Context:     e.ctx,
		Log:         logf,
	})
	if err != nil {
		return err
	}
	board, public, err := expt.Core(x.Platform(), j.Core)
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
	// A budget of 0 makes a stage evaluate-only, but the paper's rounds
	// always tune: a zero or negative budget is the default.
	stages, err := x.Run(board, public, validate.PaperStages(
		cmp.Or(max(j.Budget1, 0), DefaultValidateBudget1),
		cmp.Or(max(j.Budget2, 0), DefaultValidateBudget2)), j.Seed)
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
	e.printf("\nper-category error of the final model:\n")
	// Canonical suite order: the historical binary ranged over the map,
	// making this block's line order random per run.
	cats := validate.CategoryErrors(final.Errors)
	for _, cat := range ubench.Categories {
		if ce, ok := cats[cat]; ok {
			e.printf("  %-14s %.1f%%\n", cat, ce*100)
		}
	}

	// The statistical accuracy report of the final model, judged against
	// the resolved budget. Rendered text joins the artifact; the JSON
	// rides in the Result (and the serve report endpoint) and optionally
	// persists to the diffable report history directory.
	var rep report.ValidationReport
	wantReport := j.Report || j.Gate
	if wantReport {
		samples, plaus, err := validate.CollectSamples(final.Config, final.Ms, e.cache, e.par)
		if err != nil {
			return err
		}
		br, err := report.Build(board.Name, string(final.Config.Kind), final.Name, samples, plaus, budget)
		if err != nil {
			return err
		}
		rep = report.New(br)
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
			path := filepath.Join(j.ReportDir, "validate-"+cmp.Or(j.Core, "a53")+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			e.printf("\nwrote validation report to %s\n", path)
		}
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
	data, err := json.MarshalIndent(final.Config, "", "  ")
	if err != nil {
		return err
	}
	e.tunedConfig = append(data, '\n')
	if j.OutPath != "" {
		if err := final.Config.MarshalJSONFile(j.OutPath); err != nil {
			return err
		}
		e.printf("\nwrote tuned configuration to %s\n", j.OutPath)
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
