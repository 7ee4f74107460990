package engine

import (
	"fmt"
	"strings"
	"testing"

	"racesim/internal/simcache"
	"racesim/internal/tracememo"
)

// TestZeroSizesAreTheDefaults runs each job kind that sizes its work twice
// over one cache and one trace memo: first with its size fields zero, then
// with every one of them spelled out at its documented default. A zero must
// mean exactly the default, down to the trace memo's keys, so the second
// run renders the first run's artifact, simulates nothing and generates no
// trace. The expensive defaults are checked against toy values of the
// other fields, so every case stays small.
func TestZeroSizesAreTheDefaults(t *testing.T) {
	cases := []struct {
		name           string
		zero, explicit Job
	}{
		{"run",
			Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Workload: "mcf", Seed: 1}},
			Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Workload: "mcf", Seed: 1, Events: 100_000, Scale: 0.01}}},
		{"ubench-compare",
			Job{Kind: KindUbench, Ubench: &UbenchJob{Compare: "MD"}},
			Job{Kind: KindUbench, Ubench: &UbenchJob{Compare: "MD", Scale: 0.01}}},
		{"validate-scale",
			Job{Kind: KindValidate, Validate: &ValidateJob{Budget1: 100, Budget2: 120, Seed: 1, Quiet: true}},
			Job{Kind: KindValidate, Validate: &ValidateJob{Budget1: 100, Budget2: 120, Seed: 1, Quiet: true, Scale: 0.01}}},
		{"validate-budgets",
			Job{Kind: KindValidate, Validate: &ValidateJob{Scale: 0.001, Seed: 1, Quiet: true}},
			Job{Kind: KindValidate, Validate: &ValidateJob{Scale: 0.001, Seed: 1, Quiet: true, Budget1: 3000, Budget2: 4000}}},
		{"experiments-sizes",
			Job{Kind: KindExperiments, Experiments: &ExperimentsJob{Scenario: "table1,fig5", Budget1: 100, Budget2: 120, Seed: 1, Quiet: true}},
			Job{Kind: KindExperiments, Experiments: &ExperimentsJob{Scenario: "table1,fig5", Budget1: 100, Budget2: 120, Seed: 1, Quiet: true, Scale: 0.01, Events: 60_000}}},
		{"experiments-budgets",
			Job{Kind: KindExperiments, Experiments: &ExperimentsJob{Scenario: "fig4", Scale: 0.001, Events: 2000, Seed: 1, Quiet: true}},
			Job{Kind: KindExperiments, Experiments: &ExperimentsJob{Scenario: "fig4", Scale: 0.001, Events: 2000, Seed: 1, Quiet: true, Budget1: 2500, Budget2: 3500}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && strings.Contains(tc.name, "budgets") {
				t.Skip("default tuning budgets take seconds")
			}
			memo := tracememo.New(0, 0)
			opts := Options{Cache: simcache.New(), TraceMemo: memo, Capture: true}
			zero, err := Execute(tc.zero, opts)
			if err != nil {
				t.Fatal(err)
			}
			before := memo.Stats()
			explicit, err := Execute(tc.explicit, opts)
			if err != nil {
				t.Fatal(err)
			}
			after := memo.Stats()
			if explicit.Artifact != zero.Artifact {
				t.Errorf("artifact with the defaults spelled out differs:\n--- zero ---\n%s\n--- explicit ---\n%s", zero.Artifact, explicit.Artifact)
			}
			zs, es := zero.CacheStats, explicit.CacheStats
			if es.Misses != zs.Misses || es.Hits <= zs.Hits {
				t.Errorf("explicit defaults: %d misses after the zero run's %d (hits %d after %d); want 0 misses",
					es.Misses-zs.Misses, zs.Misses, es.Hits, zs.Hits)
			}
			requested := before.Hits + before.Misses
			got := fmt.Sprintf("traces: %d requested, %d generated",
				after.Hits+after.Misses-requested, after.Generated-before.Generated)
			if want := fmt.Sprintf("traces: %d requested, 0 generated", requested); got != want {
				t.Errorf("explicit defaults: %s; want %s", got, want)
			}
		})
	}
}
