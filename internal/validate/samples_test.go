package validate

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/report"
	"racesim/internal/sim"
	"racesim/internal/ubench"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCollectSamplesShape(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureSuite(p.A53, ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	samples, plaus, err := CollectSamples(sim.PublicA53(), ms, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(ms) {
		t.Fatalf("%d samples for %d measurements", len(samples), len(ms))
	}
	for i, s := range samples {
		if s.Bench != ms[i].Bench.Name {
			t.Errorf("sample %d is %s, measurement is %s (order must be preserved)", i, s.Bench, ms[i].Bench.Name)
		}
		if s.SimCPI <= 0 || s.HWCPI <= 0 {
			t.Errorf("%s: nonpositive CPI sim=%v hw=%v", s.Bench, s.SimCPI, s.HWCPI)
		}
	}
	// The public preset is a physical machine: wrong, but never impossible.
	if len(plaus) != 0 {
		t.Errorf("public A53 flagged as nonphysical: %v", plaus)
	}
}

// TestReportRenderDeterministicAcrossParallelism is the golden test: the
// rendered ValidationReport for the untuned public A53 must be
// byte-identical whatever parallelism produced it, and must match the
// committed golden file (regenerate with -update after an intentional
// metric or format change).
func TestReportRenderDeterministicAcrossParallelism(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureSuiteParallel(p.A53, ubench.Options{Scale: 0.002}, 4)
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallelism int) string {
		t.Helper()
		samples, plaus, err := CollectSamples(sim.PublicA53(), ms, nil, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		br, err := report.Build(p.A53.Name, string(core.InOrder), "untuned", samples, plaus, report.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		return report.New(br).Render()
	}
	sequential := render(1)
	for _, par := range []int{2, 8} {
		if got := render(par); got != sequential {
			t.Fatalf("render differs between parallelism 1 and %d:\n%s\n--- vs ---\n%s", par, sequential, got)
		}
	}

	golden := filepath.Join("testdata", "report_a53.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(sequential), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if sequential != string(want) {
		t.Errorf("rendered report drifted from golden (run `go test ./internal/validate -run Deterministic -update` if intentional):\ngot:\n%s\nwant:\n%s", sequential, want)
	}
}
