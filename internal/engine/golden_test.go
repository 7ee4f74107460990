package engine

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// checkGolden compares got with testdata/file, after rewriting the file
// with got under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	golden := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the output drifted from %s (run `go test ./internal/engine -run '%s' -update` if intentional):\n%s", golden, t.Name(), got)
	}
}

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
			checkGolden(t, tc.name+"_seed1.golden", res.Artifact)
		})
	}
}

// TestScenarioListingGolden pins both renderings of the scenario registry:
// what `racesim experiments -list-scenarios` prints and the body of GET
// /v1/scenarios.
func TestScenarioListingGolden(t *testing.T) {
	res, err := Execute(Job{Kind: KindExperiments, Experiments: &ExperimentsJob{ListScenarios: true}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "listing.golden", res.Artifact)

	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/scenarios", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/scenarios: %d %s", rec.Code, rec.Body)
	}
	checkGolden(t, "scenarios.json.golden", rec.Body.String())
}
