package engine

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/report"
	"racesim/internal/sim"
	"racesim/internal/ubench"
	"racesim/internal/validate"
)

func (e *env) validateJob(j *ValidateJob) error {
	if j == nil {
		j = &ValidateJob{}
	}
	// A budget of 0 makes a stage evaluate-only: the paper's rounds always
	// tune.
	budget1 := j.Budget1
	if budget1 <= 0 {
		budget1 = 3000
	}
	budget2 := j.Budget2
	if budget2 <= 0 {
		budget2 = 4000
	}
	scale := j.Scale
	if scale == 0 {
		scale = 0.01
	}

	board, public, err := e.board(j.Core)
	if err != nil {
		return err
	}
	// Resolve the accuracy budget up front so a bad budget file fails
	// before hours of tuning, not after.
	budget, err := resolveBudget(j)
	if err != nil {
		return err
	}

	// Progress goes to stdout, as the standalone validate binary always
	// printed it (the tuned-config table is the artifact either way).
	logf := func(format string, args ...any) {
		if !j.Quiet {
			e.printf(format+"\n", args...)
		}
	}
	if err := e.openSnapshot("validate", logf); err != nil {
		return err
	}
	stages, err := validate.Pipeline(board, public, validate.PaperStages(budget1, budget2), validate.PipelineOptions{
		Seed:        j.Seed,
		UbenchScale: scale,
		Cache:       e.cache,
		TraceMemo:   e.memo,
		Parallelism: e.par,
		Context:     e.ctx,
		Log:         logf,
	})
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

// board resolves a job's core name ("" = "a53") to its reference board,
// keeping its replays in the job's cache, and the core's public model. A
// typo'd core is an error, never plausible wrong-core numbers.
func (e *env) board(core string) (*hw.Board, sim.Config, error) {
	plat, err := hw.Firefly()
	if err != nil {
		return nil, sim.Config{}, err
	}
	return expt.Core(plat.WithCache(e.cache), core)
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
