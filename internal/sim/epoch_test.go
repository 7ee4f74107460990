package sim_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata from what the code produces now")

// TestResultsGoldenTracksEpoch pins what the models compute at the current
// core.Epoch: testdata/results.golden holds the epoch on its first line,
// then every counter of the Result of both presets on three short traces
// (two cold micro-benchmarks and a warm workload). Simulation-cache keys
// start with the epoch, so a snapshot written by an older build answers
// only while the models still compute what it holds. The test fails when
// the results move at the golden's epoch (bump core.Epoch, then run with
// -update) and when the epoch moved without the golden (run with -update).
func TestResultsGoldenTracksEpoch(t *testing.T) {
	var trs []*trace.Trace
	for _, name := range []string{"MD", "CS1"} {
		b, ok := ubench.ByName(name)
		if !ok {
			t.Fatalf("missing micro-benchmark %s", name)
		}
		tr, err := b.Trace(ubench.Options{Scale: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing workload mcf")
	}
	tr, err := workload.Generate(p, workload.Options{Events: 1500})
	if err != nil {
		t.Fatal(err)
	}
	trs = append(trs, tr)

	lines := []string{fmt.Sprintf("epoch %d", core.Epoch)}
	for _, cfg := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
		for _, tr := range trs {
			res, err := cfg.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %v", cfg.Name, tr.Name, res))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	const path = "testdata/results.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if want[0] != lines[0] {
		t.Fatalf("%s was written at %q, core.Epoch is %d: regenerate it with go test ./internal/sim -run ResultsGolden -update",
			path, want[0], core.Epoch)
	}
	for i, line := range lines {
		if i >= len(want) || line != want[i] {
			t.Fatalf("the models' results moved at %s (%s, first at line %d):\n got  %s\n want %s\n"+
				"bump core.Epoch so that no cache snapshot written before the change answers for it, then run with -update",
				lines[0], path, i+1, line, want[min(i, len(want)-1)])
		}
	}
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, want %d: regenerate it with -update", path, len(want), len(lines))
	}
}
