package engine

import (
	"os"
	"strings"
	"time"

	"racesim/internal/expt"
	"racesim/internal/scenario"
)

func (e *env) experimentsJob(j *ExperimentsJob) error {
	if j == nil {
		j = &ExperimentsJob{}
	}
	scale := j.Scale
	if scale == 0 {
		scale = 0.01
	}
	events := j.Events
	if events == 0 {
		events = 60_000
	}
	budget1 := j.Budget1
	if budget1 == 0 {
		budget1 = 2500
	}
	budget2 := j.Budget2
	if budget2 == 0 {
		budget2 = 3500
	}
	logf := func(format string, args ...any) {
		if !j.Quiet {
			e.eprintf(format+"\n", args...)
		}
	}

	specs := scenario.Registry()
	if j.Manifest != "" {
		extra, err := scenario.LoadManifest(j.Manifest)
		if err != nil {
			return err
		}
		specs = scenario.Merge(specs, extra)
	}

	if j.SaveManifest != "" {
		if err := scenario.SaveManifest(j.SaveManifest, specs); err != nil {
			return err
		}
		e.eprintf("wrote %d scenarios to %s\n", len(specs), j.SaveManifest)
		return nil
	}
	if j.ListScenarios {
		return e.listScenarios(specs)
	}

	pattern := j.Scenario
	if pattern == "" {
		pattern = "all"
	}
	selected, err := scenario.Select(specs, pattern)
	if err != nil {
		return err
	}
	units, err := scenario.Expand(selected)
	if err != nil {
		return err
	}
	total := len(units)
	if j.Units != "" {
		units, err = scenario.FilterUnits(units, strings.Split(j.Units, ","))
		if err != nil {
			return err
		}
		logf("scenario: units %s: %d of %d units", j.Units, len(units), total)
	}

	// The snapshot is saved at unit boundaries too, so a killed run
	// restarted with the same flags replays most of its finished work.
	if err := e.openSnapshot("experiments", func(format string, args ...any) {
		logf("scenario: "+format, args...)
	}); err != nil {
		return err
	}
	results, err := scenario.RunSaving(units, scenario.RunOptions{
		Expt: expt.Options{
			UbenchScale:    scale,
			WorkloadEvents: events,
			BudgetRound1:   budget1,
			BudgetRound2:   budget2,
			Seed:           j.Seed,
			Parallelism:    e.par,
			Cache:          e.cache,
			TraceMemo:      e.memo,
			Context:        e.ctx,
			Log:            logf,
		},
		Log: logf,
	}, e.snap)
	if err != nil {
		return err
	}
	if err := e.snap.Save(); err != nil {
		return err
	}

	rendered := scenario.RenderAll(results)
	e.printf("%s", rendered)
	if j.OutPath != "" {
		if err := os.WriteFile(j.OutPath, []byte(rendered), 0o644); err != nil {
			return err
		}
		e.eprintf("wrote %s\n", j.OutPath)
	}

	// Wall-clock and cache effectiveness on stderr, never in the artifact.
	for _, r := range results {
		e.eprintf("timing: %-6s %v\n", r.Unit.ID, r.Experiment.Elapsed.Round(time.Millisecond))
	}
	st := e.cache.Stats()
	e.eprintf("cache: %d hits, %d misses, %d shared in-flight (%.1f%% hit rate), %d entries\n",
		st.Hits, st.Misses, st.Shared, st.HitRate()*100, st.Entries)
	e.traceSummary()
	return nil
}

func (e *env) listScenarios(specs []scenario.Spec) error {
	infos, err := Scenarios(specs)
	if err != nil {
		return err
	}
	units := 0
	e.printf("%-22s %-14s %5s  %s\n", "scenario", "kind", "units", "description")
	for _, in := range infos {
		e.printf("%-22s %-14s %5d  %s\n", in.Name, in.Kind, in.Units, in.Description)
		units += in.Units
	}
	e.printf("\n%d scenarios, %d units; 'all' selects the paper set (%s)\n",
		len(infos), units, strings.Join(scenario.PaperSet(specs), ", "))
	return nil
}
