package scenario

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"racesim/internal/expt"
)

// Unit is one runnable step of a sweep: a scenario expands into one or
// more units (one per budget point, noise level, ...), each producing one
// rendered expt.Experiment. The expansion assigns every unit a global
// index; that fixed order is the contract behind addressing units one by
// one (FilterUnits) and merging their outputs.
type Unit struct {
	// ID is "<scenario>" for single-unit scenarios and
	// "<scenario>/<step>" otherwise; it is also the rendered experiment
	// ID for non-paper kinds.
	ID       string
	Scenario string
	Step     string
	// Index is the unit's position in the full expansion.
	Index int
	// Deps names the shared preparation artifacts this unit consumes
	// (e.g. "stages:a53" — the A53 validation pipeline, "spec:a72" — the
	// A72 workload measurements). Units sharing an artifact within one
	// process reuse it through the expt.Context memoization; across
	// processes the simulation cache deduplicates the underlying work. The
	// artifact edges form the sweep's dependency DAG: artifacts are
	// always producible from scratch, so any subset of the unit list is
	// independently runnable.
	Deps []string

	run func(*Runtime) (expt.Experiment, error)
}

// Run executes the unit against a runtime.
func (u Unit) Run(rt *Runtime) (expt.Experiment, error) {
	if u.run == nil {
		return expt.Experiment{}, fmt.Errorf("scenario: unit %s has no runner", u.ID)
	}
	return u.run(rt)
}

// paperDeps maps each paper kind to the context artifacts it consumes.
var paperDeps = map[string][]string{
	KindTable1: nil,
	KindTable2: nil,
	KindFig2:   {"measure:a53"},
	KindFig4:   {"stages:a53"},
	KindFig5:   {"stages:a53", "spec:a53"},
	KindFig6:   {"stages:a72", "spec:a72"},
	KindFig7:   {"stages:a53", "spec:a53"},
	KindFig8:   {"stages:a72", "spec:a72"},
	KindStaged: {"stages:a53", "stages:a72"},
}

// Expand validates the specs and expands them into the deterministic unit
// list: specs in slice order, steps in declared order, global indices
// assigned sequentially.
func Expand(specs []Spec) ([]Unit, error) {
	if err := checkUnique(specs); err != nil {
		return nil, err
	}
	var units []Unit
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		us, err := expandSpec(sp)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	for i := range units {
		units[i].Index = i
	}
	return units, nil
}

func expandSpec(sp Spec) ([]Unit, error) {
	switch sp.Kind {
	case KindTransfer:
		return []Unit{transferUnit(sp)}, nil
	case KindBudgetSweep:
		return budgetSweepUnits(sp), nil
	case KindNoiseSweep:
		return noiseSweepUnits(sp), nil
	default: // paper kinds, validated by sp.Validate
		kind := sp.Kind
		return []Unit{{
			ID:       sp.Name,
			Scenario: sp.Name,
			Step:     kind,
			Deps:     append([]string(nil), paperDeps[kind]...),
			run: func(rt *Runtime) (expt.Experiment, error) {
				fn, ok := rt.Ctx.ByID(kind)
				if !ok {
					return expt.Experiment{}, fmt.Errorf("scenario: no experiment for kind %q", kind)
				}
				return fn()
			},
		}}, nil
	}
}

// Select resolves a comma-separated list of scenario names or globs
// (path.Match syntax) against the specs. The reserved pattern "all"
// selects the paper set in paper order. Matches keep pattern order first,
// then spec order, deduplicated; a pattern matching nothing is an error.
func Select(specs []Spec, patterns string) ([]Spec, error) {
	byName := map[string]Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	var out []Spec
	selected := map[string]bool{}
	add := func(name string) {
		if !selected[name] {
			selected[name] = true
			out = append(out, byName[name])
		}
	}
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		if pat == "all" {
			for _, name := range PaperSet(specs) {
				add(name)
			}
			continue
		}
		matched := false
		for _, s := range specs {
			ok, err := path.Match(pat, s.Name)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad pattern %q: %w", pat, err)
			}
			if ok {
				matched = true
				add(s.Name)
			}
		}
		if !matched {
			return nil, fmt.Errorf("scenario: pattern %q matches no scenario (have: %s)",
				pat, strings.Join(Names(specs), ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: empty selection %q", patterns)
	}
	return out, nil
}

// Names lists the spec names in order.
func Names(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// FilterUnits returns the units whose IDs are listed in ids, preserving
// expansion order (not ids order) so a filtered run renders a
// subsequence of the full artifact. Every id must name a unit of
// the expansion exactly once; an unknown id is an error. This is the
// per-unit dispatch primitive of the distributed sweep coordinator: a
// worker job names the single unit it should run out of the same
// selection the coordinator expanded.
func FilterUnits(units []Unit, ids []string) ([]Unit, error) {
	want := map[string]bool{}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		want[id] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("scenario: empty unit selection")
	}
	var out []Unit
	for _, u := range units {
		if want[u.ID] {
			out = append(out, u)
			delete(want, u.ID)
		}
	}
	if len(want) > 0 {
		missing := make([]string, 0, len(want))
		for id := range want {
			missing = append(missing, id)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("scenario: unknown unit id(s) %s in this selection",
			strings.Join(missing, ", "))
	}
	return out, nil
}

// Artifacts returns the sorted union of the dependency artifacts the
// units consume — what a run of them will have to prepare (or replay from
// the simulation cache).
func Artifacts(units []Unit) []string {
	seen := map[string]bool{}
	for _, u := range units {
		for _, d := range u.Deps {
			seen[d] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
