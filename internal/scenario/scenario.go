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
// Fig. 2, Figs. 4–8, the staged-validation narrative) plus studies the
// paper's fixed pipeline cannot express. A study is one grid: each cell
// tunes a core on a board with a stage list and scores the result on the
// suite and on held-out workloads, so tune-on-one-core / validate-on-the-
// other transfer, tuner budget sweeps and measurement-noise sweeps are
// registry entries of one kind (study.go).
package scenario

import (
	"fmt"
	"regexp"
	"slices"

	"racesim/internal/expt"
)

// KindStudy is the one analysis kind beyond the paper's own, whose kinds
// are the IDs of expt.Paper.
const KindStudy = "study"

// paperIndex is the position of the paper experiment a kind names in
// expt.Paper, or -1 for any other kind.
func paperIndex(kind string) int {
	return slices.IndexFunc(expt.Paper, func(f expt.Figure) bool { return f.ID == kind })
}

// Spec is one declarative scenario. A study's empty axes take their
// defaults at expansion time (the reference board, the paper's stages at
// the sweep's budgets).
type Spec struct {
	// Name uniquely identifies the scenario; it is the `-scenario`
	// selector and the rendered experiment ID, so it is restricted to
	// glob-safe characters (lowercase letters, digits, ., -, _).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Kind selects the analysis stage: an expt.Paper ID or KindStudy.
	Kind string `json:"kind"`
	// The rest are a study's axes. Each cell of their cross product is one
	// unit (study.go).
	//
	// Cores are the cores tuned, "a53" or "a72".
	Cores []string `json:"cores,omitempty"`
	// EvalCore is the core whose Table II workloads are held out; empty
	// scores each cell on its own core's.
	EvalCore string `json:"eval_core,omitempty"`
	// Budgets are irace budgets: budget b runs the stages [untuned,
	// tuned(b)]. Empty runs the paper's stages.
	Budgets []int `json:"budgets,omitempty"`
	// NoiseLevels rebuild the board with these measurement-noise
	// amplitudes (relative, 0.01 = ±1%; max 0.2). Empty keeps the
	// reference board.
	NoiseLevels []float64 `json:"noise_levels,omitempty"`
	// SeedOffset decorrelates the study's tuner seeds from the paper
	// pipelines' (expt.Context.Seed).
	SeedOffset int64 `json:"seed_offset,omitempty"`
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// Validate checks the spec is well-formed before expansion. A field the
// kind does not read is an error, not silently dropped: a paper kind reads
// none of a study's axes.
func (s Spec) Validate() error {
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("scenario: invalid name %q (want [a-z0-9._-]+)", s.Name)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: "+format, append([]any{s.Name}, args...)...)
	}
	if s.Kind == KindStudy {
		if len(s.Cores) == 0 {
			return fail("a study needs at least one core")
		}
		if i := slices.IndexFunc(s.Cores, func(c string) bool { return !expt.IsCore(c) }); i >= 0 {
			return fail("core %q is not in {a53, a72}", s.Cores[i])
		}
		if s.EvalCore != "" && !expt.IsCore(s.EvalCore) {
			return fail("eval_core %q is not in {a53, a72}", s.EvalCore)
		}
		if i := slices.IndexFunc(s.Budgets, func(b int) bool { return b <= 0 }); i >= 0 {
			return fail("non-positive budget %d", s.Budgets[i])
		}
		if i := slices.IndexFunc(s.NoiseLevels, func(v float64) bool { return !(v >= 0 && v <= 0.2) }); i >= 0 {
			return fail("noise level %v outside [0, 0.2]", s.NoiseLevels[i])
		}
		// A unit's ID names its cell, and units are addressed by ID: a
		// value listed twice would give two units one ID.
		for _, axis := range [][2]string{
			{"core", repeated(s.Cores)}, {"budget", repeated(s.Budgets)}, {"noise level", repeated(s.NoiseLevels)},
		} {
			if axis[1] != "" {
				return fail("%s %s listed twice", axis[0], axis[1])
			}
		}
		return nil
	}
	if paperIndex(s.Kind) < 0 {
		return fail("unknown kind %q", s.Kind)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"cores", len(s.Cores) > 0}, {"eval_core", s.EvalCore != ""}, {"budgets", len(s.Budgets) > 0},
		{"noise_levels", len(s.NoiseLevels) > 0}, {"seed_offset", s.SeedOffset != 0},
	} {
		if f.set {
			return fail("kind %s does not read %s", s.Kind, f.name)
		}
	}
	return nil
}

// repeated formats the first value listed twice in vs, or is empty.
func repeated[T comparable](vs []T) string {
	for i, v := range vs {
		if slices.Contains(vs[:i], v) {
			return fmt.Sprint(v)
		}
	}
	return ""
}

// Registry returns the built-in scenarios: the paper set in paper order,
// one spec per expt.Paper entry, then the studies. The slice is freshly
// allocated; callers may append or override (see Merge).
func Registry() []Spec {
	var specs []Spec
	for _, f := range expt.Paper {
		specs = append(specs, Spec{Name: f.ID, Kind: f.ID, Description: f.Description})
	}
	return append(specs, []Spec{
		{Name: "transfer-a53-to-a72", Kind: KindStudy, Cores: []string{"a53", "a72"}, EvalCore: "a72",
			Description: "models tuned on the A53, then the A72, validated on the A72's held-out workloads"},
		{Name: "transfer-a72-to-a53", Kind: KindStudy, Cores: []string{"a72", "a53"}, EvalCore: "a53",
			Description: "models tuned on the A72, then the A53, validated on the A53's held-out workloads"},
		{Name: "budget-sweep-a53", Kind: KindStudy, Cores: []string{"a53"},
			Budgets:     []int{300, 600, 1200, 2400},
			Description: "tuned A53 suite and held-out error as a function of the racing budget"},
		{Name: "noise-sweep-a53", Kind: KindStudy, Cores: []string{"a53"},
			NoiseLevels: []float64{0, 0.01, 0.03, 0.05}, Budgets: []int{600}, SeedOffset: 900,
			Description: "tuning robustness under increasing measurement noise"},
	}...)
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
