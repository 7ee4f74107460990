package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"racesim/internal/core"
	"racesim/internal/report"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/ubench"
)

func TestJobCheck(t *testing.T) {
	cases := []struct {
		name string
		job  Job
		ok   bool
	}{
		{"run", Job{Kind: KindRun, Run: &RunJob{Ubench: "MD"}}, true},
		{"no kind", Job{}, false},
		{"unknown kind", Job{Kind: "tune"}, false},
		{"two specs", Job{Kind: KindRun, Run: &RunJob{}, Ubench: &UbenchJob{}}, false},
		{"kind without spec", Job{Kind: KindUbench}, true}, // spec is optional; defaults apply
		// A spec that does not match the kind must fail loudly: otherwise
		// the mislabeled spec is silently ignored and the kind runs on its
		// zero-value defaults (for experiments, the full paper sweep).
		{"mislabeled spec", Job{Kind: KindExperiments, Run: &RunJob{Ubench: "MD"}}, false},
		{"mislabeled spec 2", Job{Kind: KindRun, Validate: &ValidateJob{}}, false},
	}
	for _, tc := range cases {
		if err := tc.job.Check(); (err == nil) != tc.ok {
			t.Errorf("%s: Check() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestRunJobSingleTrace(t *testing.T) {
	job := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}}
	res, err := Execute(job, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"config:        public-a53", "cycles:", "CPI:", "L1D miss rate:"} {
		if !strings.Contains(res.Artifact, want) {
			t.Errorf("artifact missing %q:\n%s", want, res.Artifact)
		}
	}
	if res.Kind != KindRun {
		t.Errorf("result kind %q", res.Kind)
	}
}

func TestRunJobBatchDeterministicAcrossCacheWarmth(t *testing.T) {
	cache := simcache.New()
	job := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD,CS1,MIP", Scale: 0.002}}
	cold, err := Execute(job, Options{Cache: cache, Parallelism: 3, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Execute(job, Options{Cache: cache, Parallelism: 1, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Artifact != warm.Artifact {
		t.Errorf("artifact changed with cache warmth/parallelism:\ncold:\n%s\nwarm:\n%s", cold.Artifact, warm.Artifact)
	}
	st := warm.CacheStats
	if st.Misses != 3 || st.Hits < 3 {
		t.Errorf("warm rerun should be pure hits: %+v", st)
	}
}

func TestRunJobInlineConfigJSON(t *testing.T) {
	cfg := sim.PublicA72()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(Job{Kind: KindRun, Run: &RunJob{ConfigJSON: data, Ubench: "MD", Scale: 0.002}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Artifact, cfg.Name) {
		t.Errorf("artifact does not name the inline config %q:\n%s", cfg.Name, res.Artifact)
	}
	// A config that fails validation is rejected before simulating.
	bad := cfg
	bad.Kind = "neither-core-kind"
	data, _ = json.Marshal(bad)
	if _, err := Execute(Job{Kind: KindRun, Run: &RunJob{ConfigJSON: data, Ubench: "MD"}}, Options{}); err == nil {
		t.Error("invalid inline config accepted")
	}
}

func TestRunJobSnapshotLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	job := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}}
	if _, err := Execute(job, Options{CachePath: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	res, err := Execute(job, Options{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.CacheStats; st.Hits != 1 || st.Misses != 0 {
		t.Errorf("second run should answer from the snapshot: %+v", st)
	}
}

func TestExperimentsJobMatchesListing(t *testing.T) {
	res, err := Execute(Job{Kind: KindExperiments, Experiments: &ExperimentsJob{ListScenarios: true}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig8", "transfer-a53-to-a72", "'all' selects the paper set"} {
		if !strings.Contains(res.Artifact, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestExperimentsJobArtifact(t *testing.T) {
	job := Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "table1,table2", Scale: 0.002, Events: 4000, Quiet: true,
	}}
	a, err := Execute(job, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Artifact, "## table1 — Micro-benchmark suite") ||
		!strings.Contains(a.Artifact, "## table2 — SPEC CPU2017 region workloads") {
		t.Fatalf("unexpected artifact:\n%s", a.Artifact)
	}
	// Same job on a different engine invocation renders identical bytes.
	b, err := Execute(job, Options{Parallelism: 2, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifact != b.Artifact {
		t.Error("experiments artifact differs across engine invocations")
	}
}

func TestUbenchJobList(t *testing.T) {
	res, err := Execute(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Artifact, "MD") || !strings.Contains(res.Artifact, "category") {
		t.Errorf("suite listing looks wrong:\n%s", res.Artifact)
	}
}

func TestUbenchJobRequiresAction(t *testing.T) {
	if _, err := Execute(Job{Kind: KindUbench}, Options{}); err == nil {
		t.Error("ubench job without an action should fail")
	}
}

func TestUbenchJobRejectsUnknownCore(t *testing.T) {
	_, err := Execute(Job{Kind: KindUbench, Ubench: &UbenchJob{Compare: "MD", Core: "a57"}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown core") {
		t.Errorf("typo'd core must error, not silently compare against the A53: %v", err)
	}
}

func TestValidateJobTunedConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation pipeline")
	}
	res, err := Execute(Job{Kind: KindValidate, Validate: &ValidateJob{
		Core: "a53", Budget1: 200, Budget2: 200, Scale: 0.001, Quiet: true,
	}}, Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TunedConfig) == 0 {
		t.Fatal("validate result carries no tuned config")
	}
	var cfg sim.Config
	if err := json.Unmarshal(res.TunedConfig, &cfg); err != nil {
		t.Fatalf("tuned config does not parse: %v", err)
	}
	if err := core.Config(cfg).Validate(); err != nil {
		t.Fatalf("tuned config invalid: %v", err)
	}
	// The final model's per-category errors are the report's rows: one
	// group for the suite, then one per category in the order the suite
	// first lists it, each rendered into the artifact, which prints no
	// other view of them.
	var rep report.ValidationReport
	if err := json.Unmarshal(res.Report, &rep); err != nil || len(rep.Boards) != 1 {
		t.Fatalf("validate result carries no report (%v):\n%s", err, res.Report)
	}
	want := []string{"suite"}
	for _, b := range ubench.Suite() {
		if !slices.Contains(want, string(b.Category)) {
			want = append(want, string(b.Category))
		}
	}
	var got []string
	for _, g := range rep.Boards[0].Groups {
		got = append(got, g.Name)
		if !strings.Contains(res.Artifact, fmt.Sprintf("\n  %-14s %3d ", g.Name, g.N)) {
			t.Errorf("artifact has no %s row:\n%s", g.Name, res.Artifact)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("report groups %v, want %v", got, want)
	}
	if !strings.Contains(res.Artifact, "validation report: firefly-a53 (") || strings.Contains(res.Artifact, "per-category") {
		t.Errorf("artifact's accuracy view is not the report alone:\n%s", res.Artifact)
	}
}

func TestExecuteContextCancelsMidSweep(t *testing.T) {
	// Cancel shortly after a multi-unit sweep starts: execution must stop
	// at the next unit/stage boundary with the context's error, well
	// before the sweep could have finished.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ExecuteContext(ctx, Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "table1,table2,fig2", Scale: 0.002, Events: 4000,
		Budget1: 250, Budget2: 250, Quiet: true,
	}}, Options{Parallelism: 2, Capture: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled sweep error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v; context is not threaded into the sweep", elapsed)
	}
}

func TestExecutePreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExecuteContext(ctx, Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}}, Options{Capture: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled job error = %v, want context.Canceled", err)
	}
	if res.Artifact != "" {
		t.Errorf("pre-cancelled job produced output: %q", res.Artifact)
	}
}

// notSnapshots are bodies an existing -cache file may hold that are not a
// binary snapshot: a snapshot of the deleted JSON generation, and text.
var notSnapshots = map[string]string{
	"legacy JSON snapshot": `{
 "format": 1,
 "entries": [
  {
   "key": "` + strings.Repeat("ab", 32) + ":" + strings.Repeat("cd", 32) + `",
   "result": {"Instructions": 1000, "Cycles": 1500},
   "sum": "` + strings.Repeat("0f", 32) + `"
  }
 ]
}
`,
	"1 KiB of text": strings.Repeat("0123456789abcde\n", 64),
}

// TestCachePathNotASnapshotFailsBeforeSimulating: a cache path naming an
// existing file that is not a binary snapshot stops every entry point
// before it simulates anything, with an error naming the file, and the file
// keeps its bytes — it is never taken for a cold start and saved over.
func TestCachePathNotASnapshotFailsBeforeSimulating(t *testing.T) {
	jobs := map[string]Job{
		"run":         {Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}},
		"experiments": tinyExperiments(),
		"validate": {Kind: KindValidate, Validate: &ValidateJob{
			Core: "a53", Budget1: 50, Budget2: 50, Scale: 0.001, Quiet: true,
		}},
		"ubench -compare": {Kind: KindUbench, Ubench: &UbenchJob{Compare: "MD", Scale: 0.002}},
	}
	for what, body := range notSnapshots {
		path := filepath.Join(t.TempDir(), "cache.json")
		refused := func(who string, misses uint64, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("%s over a %s: error %v, want one naming %s", who, what, err, path)
			}
			if misses != 0 {
				t.Errorf("%s over a %s: %d simulations ran before the refusal", who, what, misses)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != body {
				t.Errorf("%s over a %s: the file was changed (read error %v)", who, what, err)
			}
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		for kind, job := range jobs {
			res, err := Execute(job, Options{CachePath: path, Capture: true})
			refused(kind, res.CacheStats.Misses, err)
		}
		srv, err := NewServer(ServerOptions{CachePath: path})
		if srv != nil {
			t.Errorf("NewServer over a %s returned a server", what)
		}
		refused("NewServer", 0, err)
	}
}

// TestCachePathStaleVersionStartsColdAndSaysSo: a binary snapshot of
// another version is not an error — the run starts cold, logs why, and
// saves a current snapshot in its place.
func TestCachePathStaleVersionStartsColdAndSaysSo(t *testing.T) {
	stale, err := simcache.New().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	stale[4] = 99 // the header's version word
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	job := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}}
	res, err := Execute(job, Options{CachePath: path, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "ignoring snapshot " + path + " (format 99); starting cold"; !strings.Contains(res.Log, want) {
		t.Errorf("log %q does not say %q", res.Log, want)
	}
	if res.CacheStats.Misses != 1 {
		t.Errorf("run over a stale snapshot: %+v, want one simulation", res.CacheStats)
	}
	if res, err = Execute(job, Options{CachePath: path}); err != nil || res.CacheStats.Misses != 0 {
		t.Errorf("rerun: error %v, stats %+v; want the saved snapshot to answer", err, res.CacheStats)
	}
}
