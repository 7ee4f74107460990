package scenario

import (
	"fmt"
	"strings"
	"testing"

	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/validate"
)

// runUnit expands specs, runs the unit with the given ID on a fresh
// context over o and returns its experiment.
func runUnit(t *testing.T, o expt.Options, specs []Spec, id string) expt.Experiment {
	t.Helper()
	units, err := Expand(specs)
	if err != nil {
		t.Fatal(err)
	}
	units, err = FilterUnits(units, []string{id})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := expt.NewContext(o)
	if err != nil {
		t.Fatal(err)
	}
	e, err := units[0].Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTransferCellIsThePaperPipeline: each cell of a transfer study
// prints the held-out errors of its core's paper pipeline on the eval
// core's workloads, computed here on a second context over the same cache.
// The A72 cell is the natively tuned comparison, what Figs. 6 and 8 start
// from.
func TestTransferCellIsThePaperPipeline(t *testing.T) {
	o, _ := countingOpts()
	specs, err := Select(Registry(), "transfer-a53-to-a72")
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := expt.NewContext(o)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ctx.Spec("a72")
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []string{"a53", "a72"} {
		e := runUnit(t, o, specs, "transfer-a53-to-a72/"+core)
		st, err := ctx.Stages(core)
		if err != nil {
			t.Fatal(err)
		}
		errs, mean, worst, err := ctx.SpecErrors(st[len(st)-1].Config, ws)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("held-out mean %s, worst %s", expt.Pct(mean), expt.Pct(worst)); !strings.Contains(e.Measured, want) {
			t.Errorf("%s cell: measured %q, want it to say %q", core, e.Measured, want)
		}
		if want := expt.SpecTable("Held-out CPI error, fixed stage", ws, errs); !strings.HasSuffix(e.Body, want) {
			t.Errorf("%s cell: body:\n%s\nwant it to end with:\n%s", core, e.Body, want)
		}
	}
}

// TestBudgetCellIsADirectRound: a budget cell's tuned stage is the round
// validate.Pipeline runs alone at the cell's seed, the run's seed plus the
// core's offset (100 for the A72) plus the study's.
func TestBudgetCellIsADirectRound(t *testing.T) {
	o, cache := countingOpts()
	o.Seed = 3
	specs := []Spec{{Name: "bs", Kind: KindStudy, Cores: []string{"a72"}, Budgets: []int{60, 90}, SeedOffset: 5}}
	e := runUnit(t, o, specs, "bs/budget=90")

	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	st, err := validate.Pipeline(plat.A72.WithCache(cache), sim.PublicA72(), []validate.Stage{{Name: "tuned", Budget: 90}},
		validate.PipelineOptions{Seed: 3 + 100 + 5, UbenchScale: o.UbenchScale, Cache: simcache.New()})
	if err != nil {
		t.Fatal(err)
	}
	race := st[0].Irace
	want := []string{"tuned", fmt.Sprintf("%d/90", race.Evaluations), fmt.Sprint(len(race.Iterations)),
		fmt.Sprintf("%.4f", race.BestCost), expt.Pct(st[0].MeanError)}
	for _, line := range strings.Split(e.Body, "\n") {
		if f := strings.Fields(line); len(f) > len(want) && f[0] == "tuned" {
			if got := f[:len(want)]; strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("tuned row starts %v, want the direct round's %v", got, want)
			}
			return
		}
	}
	t.Errorf("no tuned row in:\n%s", e.Body)
}
