package engine

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*_seed1.golden files")

// TestPaperSetGolden pins every byte of two selections at the repository
// benchmark's sizes, so that a change claiming to leave the output alone
// is checked here rather than by hand:
//   - paper_all: the paper set, what `racesim experiments -scenario all
//     -scale 0.001 -events 2000 -budget1 100 -budget2 120 -seed 1` prints;
//   - extras: the cross-product scenarios (both transfers, the budget sweep
//     and the noise sweep) at the same sizes.
//
// A change meant to move the output rewrites the files with -update.
func TestPaperSetGolden(t *testing.T) {
	extras := toyAll()
	extras.Experiments.Scenario = "transfer-*,budget-sweep-a53,noise-sweep-a53"
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"paper_all", toyAll()},
		{"extras", extras},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Execute(tc.job, Options{Parallelism: 2, Capture: true})
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+"_seed1.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(res.Artifact), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if res.Artifact != string(want) {
				t.Errorf("the output drifted from %s (run `go test ./internal/engine -run PaperSetGolden -update` if intentional):\n%s", golden, res.Artifact)
			}
		})
	}
}
