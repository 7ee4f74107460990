package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/validate"
)

// toyAll is `experiments -scenario all` at the repository benchmark's toy
// sizes (benchmark/README.md): both pipelines, the tuner, the boards, the
// perturbation study — the paper's whole journey in a couple of seconds.
func toyAll() Job {
	return Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "all", Scale: 0.001, Events: 2000, Budget1: 100, Budget2: 120, Seed: 1, Quiet: true,
	}}
}

// toyAllDistinctTraces is what a toyAll job has to build: the raw and the
// initialized suite, the six lmbench traces, the Table II workloads.
var toyAllDistinctTraces = uint64(2*len(ubench.Suite()) + 6 + 11)

// agedCopy copies the snapshot at src to a new file whose mtime lies in the
// past, so a job that rewrites it shows, and returns its path and FileInfo.
func agedCopy(t testing.TB, src string) (string, os.FileInfo) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, info
}

// TestExperimentsWarmJobOnlyLooksUp: an experiments job run cold into a
// snapshot and warm from a copy of it render the same artifact, and the
// warm job does only what cannot be avoided — it builds each distinct
// input once (under the caller's memo as under the private one the cold
// job got), looks up everything the cold job looked up, its board
// measurements included, replays nothing, finds the boards' replays in the
// snapshot, and leaves the snapshot file alone.
func TestExperimentsWarmJobOnlyLooksUp(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	pristine := filepath.Join(t.TempDir(), "pristine.snap")
	cold, err := Execute(toyAll(), Options{CachePath: pristine, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	work, opened := agedCopy(t, pristine)
	memo := tracememo.New(0, 0)
	warm, err := Execute(toyAll(), Options{CachePath: work, TraceMemo: memo, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Artifact != cold.Artifact {
		t.Errorf("warm artifact differs from the cold run's:\n--- cold ---\n%s\n--- warm ---\n%s", cold.Artifact, warm.Artifact)
	}
	cs, ws := cold.CacheStats, warm.CacheStats
	if ws.Misses != 0 || ws.Hits+ws.Shared != cs.Hits+cs.Misses+cs.Shared {
		t.Errorf("warm job: %+v; want no replay and the cold job's %d lookups", ws, cs.Hits+cs.Misses+cs.Shared)
	}
	if st := memo.Stats(); st.Misses != toyAllDistinctTraces || st.Hits == 0 {
		t.Errorf("warm job's memo: %+v, want %d traces built and the repeats answered", st, toyAllDistinctTraces)
	}
	if now, err := os.Stat(work); err != nil || !os.SameFile(now, opened) || !now.ModTime().Equal(opened.ModTime()) {
		t.Errorf("the warm job rewrote a snapshot it added nothing to (stat error %v)", err)
	}

	// The boards' replays are ordinary entries of the snapshot.
	snap := simcache.New()
	if _, _, err := snap.LoadChecked(pristine); err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MD", "CS1", "STc"} {
		b, _ := ubench.ByName(name)
		tr, err := memo.Ubench(b, ubench.Options{Scale: toyAll().Experiments.Scale})
		if err != nil {
			t.Fatal(err)
		}
		for _, board := range []*hw.Board{plat.A53, plat.A72} {
			if !snap.OnDisk(simcache.Key(board.TrueConfig(), tr)) {
				t.Errorf("snapshot holds no replay of %s on %s", name, board.Name)
			}
		}
	}
}

// TestValidateJobThreeWay: a validate job run cold into a snapshot and warm
// from it, and the pipeline called directly with neither memo nor cache on
// boards that replay every measurement, tune the same configuration to the
// same errors. The warm job replays nothing.
func TestValidateJobThreeWay(t *testing.T) {
	job := Job{Kind: KindValidate, Validate: &ValidateJob{Core: "a72", Budget1: 80, Budget2: 80, Scale: 0.001, Seed: 2, Quiet: true}}
	snapshot := filepath.Join(t.TempDir(), "validate.snap")
	cold, err := Execute(job, Options{CachePath: snapshot, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	memo := tracememo.New(0, 0)
	warm, err := Execute(job, Options{CachePath: snapshot, TraceMemo: memo, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Artifact != cold.Artifact || string(warm.TunedConfig) != string(cold.TunedConfig) {
		t.Errorf("warm validate job differs from the cold one:\n--- cold ---\n%s\n--- warm ---\n%s", cold.Artifact, warm.Artifact)
	}
	cs, ws := cold.CacheStats, warm.CacheStats
	if ws.Misses != 0 || ws.Hits+ws.Shared != cs.Hits+cs.Misses+cs.Shared {
		t.Errorf("warm job: %+v; want no replay and the cold job's %d lookups", ws, cs.Hits+cs.Misses+cs.Shared)
	}
	// One pipeline: both suites and the lmbench traces, each asked for once.
	if st, want := memo.Stats(), uint64(2*len(ubench.Suite())+6); st.Misses != want || st.Hits != 0 {
		t.Errorf("warm job's memo: %+v, want %d traces built", st, want)
	}

	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	v := job.Validate
	stages, err := validate.Pipeline(plat.A72, sim.PublicA72(), validate.PipelineOptions{
		BudgetRound1: v.Budget1, BudgetRound2: v.Budget2, Seed: v.Seed, UbenchScale: v.Scale, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := json.MarshalIndent(stages[len(stages)-1].Config, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(direct)+"\n" != string(cold.TunedConfig) {
		t.Errorf("the direct pipeline tuned a different configuration:\n--- direct ---\n%s\n--- job ---\n%s", direct, cold.TunedConfig)
	}
	for _, s := range stages {
		if line := fmt.Sprintf("%-10s %-12s", s.Name, fmt.Sprintf("%.1f%%", s.MeanError*100)); !strings.Contains(cold.Artifact, line) {
			t.Errorf("stage line %q of the direct pipeline is not in the job's artifact:\n%s", line, cold.Artifact)
		}
	}
}

// TestConcurrentJobsShareMemoAndCache runs two identical experiments jobs
// at once on a two-worker server, so both race for every input in the
// server's one trace memo and for every board replay and simulation in its
// one cache. Each renders the single-job artifact, and between them each
// distinct input was still built once. Run under -race in CI.
func TestConcurrentJobsShareMemoAndCache(t *testing.T) {
	job := Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "table1,table2,fig2,fig5", Scale: 0.001, Events: 1000, Budget1: 40, Budget2: 40, Quiet: true,
	}}
	want, err := Execute(job, Options{Parallelism: 2, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{Workers: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())
	var ids []string
	for i := 0; i < 2; i++ {
		id, code := postJob(t, ts, job)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, code)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st := waitDone(t, ts, id)
		if st.Status != "done" {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if st.Result.Artifact != want.Artifact {
			t.Errorf("job %s, run beside its twin, rendered a different artifact:\n--- alone ---\n%s\n--- concurrent ---\n%s",
				id, want.Artifact, st.Result.Artifact)
		}
	}
	// One A53 pipeline plus Table II: 40 + 40 + 6 + 11 distinct inputs.
	if st := srv.memo.Stats(); st.Misses != toyAllDistinctTraces {
		t.Errorf("two concurrent jobs built %d traces, want each of the %d distinct ones once (%+v)", st.Misses, toyAllDistinctTraces, st)
	}
	// Everything the single job simulated, simulated once between the two.
	if got := srv.Cache().Stats().Misses; got != want.CacheStats.Misses {
		t.Errorf("two concurrent jobs ran %d simulations, a single job %d", got, want.CacheStats.Misses)
	}
}
