package engine

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_all_seed1.golden")

// TestPaperSetGolden pins every byte of the paper set at the repository
// benchmark's sizes — what `racesim experiments -scenario all -scale 0.001
// -events 2000 -budget1 100 -budget2 120 -seed 1` prints — so that a change
// claiming to leave the output alone is checked here rather than by hand.
// A change meant to move the output rewrites the file with -update.
func TestPaperSetGolden(t *testing.T) {
	res, err := Execute(toyAll(), Options{Parallelism: 2, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "paper_all_seed1.golden")
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
		t.Errorf("the paper set's output drifted from %s (run `go test ./internal/engine -run PaperSetGolden -update` if intentional):\n%s", golden, res.Artifact)
	}
}
