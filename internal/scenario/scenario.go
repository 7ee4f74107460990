// Package scenario turns every experiment this repository can run into a
// declarative, manifest-driven unit of work. A scenario is a named spec —
// (board/platform × workload or micro-benchmark suite × tuner options ×
// analysis stage) — that expands into a deterministic, dependency-annotated
// list of runnable units. The expansion order is globally fixed, which is
// what makes fleet features sound:
//
//   - distribution: FilterUnits addresses units by ID, so the sweep
//     coordinator (internal/cluster) runs each on whichever worker is free
//     and concatenates the outputs in expansion order, byte-identical to a
//     single-process run;
//   - picking up an interrupted run: Run saves the shared simulation cache
//     (internal/simcache) to RunOptions.CachePath on every way out and at
//     unit boundaries, so the same sweep re-run against the same file
//     answers what was already simulated from it;
//   - manifests: scenario specs round-trip through JSON (LoadManifest /
//     SaveManifest), so adding a scenario to a sweep is data, not code.
//
// The registry covers the paper's own tables and figures (Table I/II,
// Fig. 2, Figs. 4–8, the staged-validation narrative) plus cross-product
// scenarios the paper's fixed pipeline cannot express: tune-on-one-core /
// validate-on-the-other transfer studies, tuner budget-sweep ablations,
// and measurement-noise sweeps.
package scenario

import (
	"fmt"
	"regexp"
	"slices"
	"strings"

	"racesim/internal/expt"
)

// Kinds of analysis a scenario can request beyond the paper's own: each ID
// of expt.Paper is a kind too. The extra kinds are implemented in extra.go.
const (
	KindTransfer    = "transfer"     // tune on TuneCore, validate on EvalCore
	KindBudgetSweep = "budget-sweep" // one tuning round per Budgets entry
	KindNoiseSweep  = "noise-sweep"  // re-measure + tune per NoiseLevels entry
)

// paperIndex is the position of the paper experiment a kind names in
// expt.Paper, or -1 for any other kind.
func paperIndex(kind string) int {
	return slices.IndexFunc(expt.Paper, func(f expt.Figure) bool { return f.ID == kind })
}

// Spec is one declarative scenario. Zero-valued fields inherit the sweep's
// global options (budgets, seed) at expansion time.
type Spec struct {
	// Name uniquely identifies the scenario; it is the `-scenario`
	// selector and the rendered experiment ID, so it is restricted to
	// glob-safe characters (lowercase letters, digits, ., -, _).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Kind selects the analysis stage: an expt.Paper ID or one of the Kind*
	// constants.
	Kind string `json:"kind"`
	// Core selects the board for single-board kinds: "a53" or "a72".
	Core string `json:"core,omitempty"`
	// TuneCore/EvalCore are the transfer kind's cross product: the model
	// is tuned against TuneCore's measurements and validated on
	// EvalCore's held-out workloads.
	TuneCore string `json:"tune_core,omitempty"`
	EvalCore string `json:"eval_core,omitempty"`
	// Budget overrides the irace budget for this scenario's tuning
	// rounds (0 inherits the sweep default).
	Budget int `json:"budget,omitempty"`
	// Budgets are the sweep points of a budget-sweep scenario, one unit
	// each.
	Budgets []int `json:"budgets,omitempty"`
	// NoiseLevels are the measurement-noise amplitudes of a noise-sweep
	// scenario, one unit each (relative, 0.01 = ±1%; max 0.2).
	NoiseLevels []float64 `json:"noise_levels,omitempty"`
	// SeedOffset decorrelates this scenario's tuner seed from the sweep
	// seed (unit seed = sweep seed + SeedOffset).
	SeedOffset int64 `json:"seed_offset,omitempty"`
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// Validate checks the spec is well-formed before expansion. A field the
// kind does not read is an error, not silently dropped: a paper kind runs
// only on the cores its expt.Paper entry depends on.
func (s Spec) Validate() error {
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("scenario: invalid name %q (want [a-z0-9._-]+)", s.Name)
	}
	readsBudget, readsSeedOffset := false, false
	switch s.Kind {
	case KindTransfer:
		if !expt.IsCore(s.TuneCore) || !expt.IsCore(s.EvalCore) {
			return fmt.Errorf("scenario %s: transfer needs tune_core and eval_core in {a53, a72}", s.Name)
		}
		if s.TuneCore == s.EvalCore {
			return fmt.Errorf("scenario %s: transfer with tune_core == eval_core is the plain validation pipeline", s.Name)
		}
	case KindBudgetSweep:
		readsSeedOffset = true
		if !expt.IsCore(s.Core) {
			return fmt.Errorf("scenario %s: budget-sweep needs core in {a53, a72}", s.Name)
		}
		if len(s.Budgets) == 0 {
			return fmt.Errorf("scenario %s: budget-sweep needs at least one budget", s.Name)
		}
		for i, b := range s.Budgets {
			if b <= 0 {
				return fmt.Errorf("scenario %s: non-positive budget %d", s.Name, b)
			}
			if slices.Contains(s.Budgets[:i], b) {
				return fmt.Errorf("scenario %s: budget %d listed twice", s.Name, b)
			}
		}
	case KindNoiseSweep:
		readsBudget, readsSeedOffset = true, true
		if !expt.IsCore(s.Core) {
			return fmt.Errorf("scenario %s: noise-sweep needs core in {a53, a72}", s.Name)
		}
		if len(s.NoiseLevels) == 0 {
			return fmt.Errorf("scenario %s: noise-sweep needs at least one noise level", s.Name)
		}
		// A unit's ID names its level, and units are addressed by ID: a
		// repeated level would give two units, tuned from different seeds,
		// one ID.
		for i, v := range s.NoiseLevels {
			if v < 0 || v > 0.2 {
				return fmt.Errorf("scenario %s: noise level %v outside [0, 0.2]", s.Name, v)
			}
			if slices.Contains(s.NoiseLevels[:i], v) {
				return fmt.Errorf("scenario %s: noise level %v listed twice", s.Name, v)
			}
		}
	default: // a paper kind: the analysis stage is fully determined by it
		i := paperIndex(s.Kind)
		if i < 0 {
			return fmt.Errorf("scenario %s: unknown kind %q", s.Name, s.Kind)
		}
		if s.Core != "" && !slices.ContainsFunc(expt.Paper[i].Deps, func(dep string) bool {
			_, core, _ := strings.Cut(dep, ":")
			return core == s.Core
		}) {
			return fmt.Errorf("scenario %s: %s does not run on core %q", s.Name, s.Kind, s.Core)
		}
	}
	switch {
	case s.Budget < 0:
		return fmt.Errorf("scenario %s: negative budget", s.Name)
	case s.Budget != 0 && !readsBudget:
		return fmt.Errorf("scenario %s: kind %s does not read budget", s.Name, s.Kind)
	case s.SeedOffset != 0 && !readsSeedOffset:
		return fmt.Errorf("scenario %s: kind %s does not read seed_offset", s.Name, s.Kind)
	}
	return nil
}

// Registry returns the built-in scenarios: the paper set in paper order,
// then the cross-product extras. The slice is freshly allocated; callers
// may append or override (see Merge).
func Registry() []Spec {
	specs := []Spec{
		{Name: "table1", Kind: "table1", Description: "Table I: the micro-benchmark suite and dynamic instruction counts"},
		{Name: "table2", Kind: "table2", Description: "Table II: synthetic SPEC CPU2017 region workloads"},
		{Name: "fig2", Kind: "fig2", Core: "a53", Description: "iterated-racing elimination dynamics on the A53"},
		{Name: "fig4", Kind: "fig4", Core: "a53", Description: "micro-benchmark CPI error, untuned vs tuned (A53)"},
		{Name: "fig5", Kind: "fig5", Core: "a53", Description: "SPEC CPI error of the tuned in-order model"},
		{Name: "fig6", Kind: "fig6", Core: "a72", Description: "SPEC CPI error of the tuned out-of-order model"},
		{Name: "fig7", Kind: "fig7", Core: "a53", Description: "close-to-optimum but inaccurate A53 model"},
		{Name: "fig8", Kind: "fig8", Core: "a72", Description: "close-to-optimum but inaccurate A72 model"},
		{Name: "staged", Kind: "staged", Description: "mean error per validation stage (Sec. IV-B)"},
		{Name: "transfer-a53-to-a72", Kind: KindTransfer, TuneCore: "a53", EvalCore: "a72",
			Description: "model tuned on the A53, validated on the A72's held-out workloads"},
		{Name: "transfer-a72-to-a53", Kind: KindTransfer, TuneCore: "a72", EvalCore: "a53",
			Description: "model tuned on the A72, validated on the A53's held-out workloads"},
		{Name: "budget-sweep-a53", Kind: KindBudgetSweep, Core: "a53",
			Budgets:     []int{300, 600, 1200, 2400},
			Description: "tuned A53 suite error as a function of the racing budget"},
		{Name: "noise-sweep-a53", Kind: KindNoiseSweep, Core: "a53",
			NoiseLevels: []float64{0, 0.01, 0.03, 0.05}, Budget: 600, SeedOffset: 900,
			Description: "tuning robustness under increasing measurement noise"},
	}
	return specs
}

// Merge overlays extra specs (e.g. from a manifest) on base: a spec whose
// name already exists replaces it in place, new names append in order.
func Merge(base, extra []Spec) []Spec {
	out := append([]Spec(nil), base...)
	idx := map[string]int{}
	for i, s := range out {
		idx[s.Name] = i
	}
	for _, s := range extra {
		if i, ok := idx[s.Name]; ok {
			out[i] = s
			continue
		}
		idx[s.Name] = len(out)
		out = append(out, s)
	}
	return out
}

// checkUnique rejects duplicate scenario names.
func checkUnique(specs []Spec) error {
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			return fmt.Errorf("scenario: duplicate name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// PaperSet returns the names of the scenarios reproducing the paper's own
// evaluation, in paper order — what the reserved pattern "all" selects.
func PaperSet(specs []Spec) []string {
	var paper []Spec
	for _, s := range specs {
		if paperIndex(s.Kind) >= 0 {
			paper = append(paper, s)
		}
	}
	// Paper order, not registry order, in case a manifest reordered them.
	slices.SortStableFunc(paper, func(a, b Spec) int {
		return paperIndex(a.Kind) - paperIndex(b.Kind)
	})
	return Names(paper)
}
