package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"racesim/internal/expt"
)

func TestRegistryValidAndUnique(t *testing.T) {
	specs := Registry()
	if err := checkUnique(specs); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("registry spec %s: %v", s.Name, err)
		}
	}
	if got := PaperSet(specs); !reflect.DeepEqual(got, paperIDs()) {
		t.Errorf("paper set %v, want the expt.Paper IDs %v", got, paperIDs())
	}
}

// paperIDs lists the IDs of expt.Paper, in paper order.
func paperIDs() []string {
	ids := make([]string, len(expt.Paper))
	for i, f := range expt.Paper {
		ids[i] = f.ID
	}
	return ids
}

// TestPaperFiguresDeclareContextArtifacts: the deps of every paper
// experiment name an artifact the expt.Context memoizes for a core of the
// platform, every paper scenario of the registry expands to one unit that
// carries its experiment's deps, and a manifest naming a paper kind still
// loads and expands to that unit.
func TestPaperFiguresDeclareContextArtifacts(t *testing.T) {
	for _, f := range expt.Paper {
		for _, d := range f.Deps {
			what, core, _ := strings.Cut(d, ":")
			if (what != "stages" && what != "spec" && what != "measure") || !expt.IsCore(core) {
				t.Errorf("%s: dep %q is not stages:, spec: or measure: of a core", f.ID, d)
			}
		}
	}
	figures := map[string]expt.Figure{}
	for _, f := range expt.Paper {
		figures[f.ID] = f
	}
	for _, sp := range Registry() {
		f, ok := figures[sp.Kind]
		if !ok {
			continue
		}
		units, err := Expand([]Spec{sp})
		if err != nil {
			t.Fatal(err)
		}
		if len(units) != 1 || !reflect.DeepEqual(units[0].Deps, f.Deps) {
			t.Errorf("%s expands to %+v, want one unit with deps %v", sp.Name, units, f.Deps)
		}
	}
	specs, err := parseManifest([]byte(`{"format": 1, "scenarios": [{"name": "mine", "kind": "fig4", "core": "a53"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	units, err := Expand(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || units[0].ID != "mine" || units[0].Step != "fig4" || !reflect.DeepEqual(units[0].Deps, figures["fig4"].Deps) {
		t.Errorf("a fig4 manifest expands to %+v", units)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Name: "", Kind: "table1"},
		{Name: "Has Space", Kind: "table1"},
		{Name: "x", Kind: "nope"},
		{Name: "x", Kind: KindTransfer, TuneCore: "a53", EvalCore: "a53"},
		{Name: "x", Kind: KindTransfer, TuneCore: "a53", EvalCore: "m1"},
		{Name: "x", Kind: KindBudgetSweep, Core: "a53"},
		{Name: "x", Kind: KindBudgetSweep, Core: "a53", Budgets: []int{100, 0}},
		{Name: "x", Kind: KindNoiseSweep, Core: "a53"},
		{Name: "x", Kind: KindNoiseSweep, Core: "a53", NoiseLevels: []float64{0.5}},
		{Name: "x", Kind: "fig2", Budget: -1},
		// A field the kind does not read: Fig. 5 on the A72 rendered the
		// A53's figure, and a Fig. 4 budget was dropped.
		{Name: "fig4-budget100", Kind: "fig4", Budget: 100},
		{Name: "x", Kind: "table1", SeedOffset: 3},
		{Name: "fig5-on-a72", Kind: "fig5", Core: "a72"},
		{Name: "x", Kind: "table1", Core: "a53"},
		{Name: "x", Kind: KindTransfer, TuneCore: "a53", EvalCore: "a72", Budget: 100},
		{Name: "x", Kind: KindTransfer, TuneCore: "a53", EvalCore: "a72", SeedOffset: 3},
		{Name: "x", Kind: KindBudgetSweep, Core: "a53", Budgets: []int{100}, Budget: 100},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	good := []Spec{
		{Name: "x", Kind: "staged", Core: "a72"},
		{Name: "x", Kind: "fig8", Core: "a72"},
		{Name: "x", Kind: KindBudgetSweep, Core: "a53", Budgets: []int{100}, SeedOffset: 3},
		{Name: "x", Kind: KindNoiseSweep, Core: "a53", NoiseLevels: []float64{0}, Budget: 60, SeedOffset: 7},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", s, err)
		}
	}
}

func TestExpandDeterministic(t *testing.T) {
	a, err := Expand(Registry())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(Registry())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("expansions differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Index != i || b[i].Index != i {
			t.Errorf("unit %d: %q/%d vs %q/%d", i, a[i].ID, a[i].Index, b[i].ID, b[i].Index)
		}
		if !reflect.DeepEqual(a[i].Deps, b[i].Deps) {
			t.Errorf("unit %s deps differ: %v vs %v", a[i].ID, a[i].Deps, b[i].Deps)
		}
	}
	// The paper scenarios expand to exactly the classic experiment list.
	for i, id := range paperIDs() {
		if a[i].ID != id {
			t.Errorf("unit %d = %s, want %s", i, a[i].ID, id)
		}
	}
	if _, err := Expand([]Spec{{Name: "d", Kind: "table1"}, {Name: "d", Kind: "table2"}}); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestFilterUnits(t *testing.T) {
	units, err := Expand(Registry())
	if err != nil {
		t.Fatal(err)
	}
	// Selection order does not matter; expansion order is preserved.
	got, err := FilterUnits(units, []string{"fig4", "table1", "budget-sweep-a53/budget=600"})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"table1", "fig4", "budget-sweep-a53/budget=600"}
	if len(got) != len(wantIDs) {
		t.Fatalf("filtered %d units, want %d", len(got), len(wantIDs))
	}
	for i, id := range wantIDs {
		if got[i].ID != id {
			t.Errorf("unit %d = %s, want %s", i, got[i].ID, id)
		}
	}
	if _, err := FilterUnits(units, []string{"table1", "no-such-unit"}); err == nil {
		t.Error("unknown unit id accepted")
	}
	if _, err := FilterUnits(units, []string{" ", ""}); err == nil {
		t.Error("empty unit selection accepted")
	}
}

func TestSelect(t *testing.T) {
	specs := Registry()
	all, err := Select(specs, "all")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Names(all), paperIDs()) {
		t.Errorf("'all' selected %v", Names(all))
	}
	tr, err := Select(specs, "transfer-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 {
		t.Errorf("transfer-* selected %v", Names(tr))
	}
	// Dedup: fig4 appears once even if matched twice.
	both, err := Select(specs, "fig4,all")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(both); n != len(paperIDs()) {
		t.Errorf("fig4,all selected %d specs: %v", n, Names(both))
	}
	if both[0].Name != "fig4" {
		t.Errorf("pattern order not respected: first is %s", both[0].Name)
	}
	if _, err := Select(specs, "nope-*"); err == nil {
		t.Error("unmatched pattern accepted")
	}
	if _, err := Select(specs, ""); err == nil {
		t.Error("empty selection accepted")
	}
}

func TestMerge(t *testing.T) {
	base := Registry()
	override := Spec{Name: "fig2", Kind: "fig2", Core: "a53", Description: "patched"}
	added := Spec{Name: "night-sweep", Kind: KindBudgetSweep, Core: "a72", Budgets: []int{100}}
	merged := Merge(base, []Spec{override, added})
	if len(merged) != len(base)+1 {
		t.Fatalf("merged %d specs, want %d", len(merged), len(base)+1)
	}
	for i, s := range merged[:len(base)] {
		if s.Name != base[i].Name {
			t.Errorf("merge reordered: %d = %s, want %s", i, s.Name, base[i].Name)
		}
	}
	if merged[2].Description != "patched" {
		t.Error("override did not replace in place")
	}
	if merged[len(merged)-1].Name != "night-sweep" {
		t.Error("new spec not appended")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	specs := Registry()
	if err := SaveManifest(path, specs); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, specs) {
		t.Errorf("round trip changed specs:\n%+v\nvs\n%+v", loaded, specs)
	}
	if err := SaveManifest(filepath.Join(dir, "bad.json"), []Spec{{Name: "x", Kind: "nope"}}); err == nil {
		t.Error("invalid spec saved")
	}
	if _, err := LoadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing manifest loaded")
	}
}

func TestArtifacts(t *testing.T) {
	units, err := Expand(Registry())
	if err != nil {
		t.Fatal(err)
	}
	arts := Artifacts(units)
	joined := strings.Join(arts, " ")
	for _, want := range []string{"stages:a53", "stages:a72", "spec:a53", "spec:a72", "measure:a53"} {
		if !strings.Contains(joined, want) {
			t.Errorf("artifacts %v missing %s", arts, want)
		}
	}
	for i := 1; i < len(arts); i++ {
		if arts[i-1] >= arts[i] {
			t.Errorf("artifacts not sorted: %v", arts)
		}
	}
}
