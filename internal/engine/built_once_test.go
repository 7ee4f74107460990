package engine

import (
	"bytes"
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

	"racesim/internal/expt"
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

// asBuild runs f as the build with the given ID: the scope of the trace
// identities a job's memo keeps in its cache ("" is a build that cannot
// name itself, which remembers nothing — every build before identities
// existed, as far as a snapshot can tell).
func asBuild(id string, f func()) {
	real := buildID
	buildID = func() string { return id }
	defer func() { buildID = real }()
	f()
}

// withoutIdentities writes the snapshot at src, less its trace identities,
// to a new file and returns its path: the snapshot a build from before
// identities existed (the parent commit's) writes for the same job.
func withoutIdentities(t *testing.T, src string) string {
	t.Helper()
	snap := simcache.New()
	if _, _, err := snap.LoadChecked(src); err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	old := simcache.New()
	for _, key := range snap.Keys() {
		if res, ok := snap.Peek(key); ok && !simcache.IsTraceIdentity(key) {
			old.Store(key, res)
		}
	}
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// traceSummary reads the trace summary off a job's stderr: how many traces
// the job asked its memo for and how many had to be generated.
func traceSummary(t testing.TB, log string) (requested, generated int) {
	t.Helper()
	i := strings.Index(log, "traces: ")
	if i < 0 {
		t.Fatalf("no trace summary on stderr:\n%s", log)
	}
	if _, err := fmt.Sscanf(log[i:], "traces: %d requested, %d generated", &requested, &generated); err != nil {
		t.Fatalf("trace summary %q: %v", log[i:], err)
	}
	return requested, generated
}

// warmFrom runs job from an aged copy of the snapshot at src and returns
// the result, the copy's path and whether the job left the copy alone.
func warmFrom(t *testing.T, job Job, src string) (res *Result, path string, untouched bool) {
	t.Helper()
	path, opened := agedCopy(t, src)
	res, err := Execute(job, Options{CachePath: path, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return res, path, os.SameFile(now, opened) && now.ModTime().Equal(opened.ModTime())
}

// sameFiles reports whether two files hold the same bytes.
func sameFiles(t *testing.T, a, b string) bool {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(x, y)
}

// checkWarm checks a warm job against the cold one it should repeat: the
// same artifact, everything the cold job looked up looked up again and
// none of it simulated, and the job's stderr summary reporting the given
// trace requests and generations.
func checkWarm(t *testing.T, what string, cold, warm *Result, requested, generated uint64) {
	t.Helper()
	if warm.Artifact != cold.Artifact {
		t.Errorf("%s: artifact differs from the cold run's:\n--- cold ---\n%s\n--- warm ---\n%s", what, cold.Artifact, warm.Artifact)
	}
	cs, ws := cold.CacheStats, warm.CacheStats
	if ws.Misses != 0 || ws.Hits+ws.Shared != cs.Hits+cs.Misses+cs.Shared {
		t.Errorf("%s: %+v; want no replay and the cold job's %d lookups", what, ws, cs.Hits+cs.Misses+cs.Shared)
	}
	if want := fmt.Sprintf("traces: %d requested, %d generated\n", requested, generated); !strings.Contains(warm.Log, want) {
		t.Errorf("%s: want %q on stderr, got:\n%s", what, want, warm.Log)
	}
}

// threeWay is the differential every job kind that generates inputs must
// pass. A job run cold into a snapshot, by this build, generates each of
// its distinct inputs once and writes what they were beside its results.
// Warm from a copy of that snapshot the same build generates nothing and
// leaves the file alone; another build believes none of the identities,
// generates every input, finds every result still valid and adds exactly
// its own identities; and from the snapshot the parent commit would have
// written — the same results, no identities — this build does the same
// once, ending with the cold run's snapshot byte for byte, and nothing the
// second time. All render the cold run's artifact and simulate nothing.
func threeWay(t *testing.T, job Job, requested, distinct uint64) (cold *Result, pristine string) {
	t.Helper()
	pristine = filepath.Join(t.TempDir(), "pristine.snap")
	cold, err := Execute(job, Options{CachePath: pristine, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("traces: %d requested, %d generated\n", requested, distinct); !strings.Contains(cold.Log, want) {
		t.Errorf("cold job: want %q on stderr, got:\n%s", want, cold.Log)
	}
	entries := cold.CacheStats.Entries

	same, _, untouched := warmFrom(t, job, pristine)
	checkWarm(t, "same build", cold, same, requested, 0)
	if !untouched || same.CacheStats.Entries != entries {
		t.Errorf("same build: snapshot rewritten (untouched %v) or grown from %d to %d entries by a job that added nothing",
			untouched, entries, same.CacheStats.Entries)
	}

	asBuild("some other build", func() {
		other, path, untouched := warmFrom(t, job, pristine)
		checkWarm(t, "other build", cold, other, requested, distinct)
		if untouched || uint64(other.CacheStats.Entries) != uint64(entries)+distinct {
			t.Errorf("other build: snapshot untouched (%v) or at %d entries; want the %d it opened and its own %d identities",
				untouched, other.CacheStats.Entries, entries, distinct)
		}
		again, _, untouched := warmFrom(t, job, path)
		checkWarm(t, "other build, second run", cold, again, requested, 0)
		if !untouched {
			t.Error("other build, second run: snapshot rewritten")
		}
	})

	old := withoutIdentities(t, pristine)
	first, upgraded, _ := warmFrom(t, job, old)
	checkWarm(t, "snapshot without identities", cold, first, requested, distinct)
	if uint64(first.CacheStats.Entries) != uint64(entries) {
		t.Errorf("snapshot without identities: %d entries after first use, want the cold run's %d", first.CacheStats.Entries, entries)
	}
	if !sameFiles(t, upgraded, pristine) {
		t.Error("snapshot without identities: first use did not end with the cold run's snapshot")
	}
	return cold, pristine
}

// TestExperimentsWarmJobOnlyLooksUp is the three-way differential for an
// experiments job, `-scenario all` at toy sizes: 307 trace requests for 97
// distinct inputs. The boards' replays are entries of its snapshot too.
func TestExperimentsWarmJobOnlyLooksUp(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	_, pristine := threeWay(t, toyAll(), 307, toyAllDistinctTraces)

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
		tr, err := b.Trace(ubench.Options{Scale: toyAll().Experiments.Scale})
		if err != nil {
			t.Fatal(err)
		}
		for _, board := range []*hw.Board{plat.A53, plat.A72} {
			if _, err := snap.Disk().Get(simcache.Key(board.TrueConfig(), tr)); err != nil {
				t.Errorf("snapshot holds no replay of %s on %s", name, board.Name)
			}
		}
	}
}

// TestValidateJobThreeWay is the three-way differential for a validate job
// (one pipeline: both suites and the lmbench traces, each asked for once),
// and a fourth way: the pipeline called directly with neither memo nor
// cache, on boards that replay every measurement, at the job's seed plus
// the A72's offset of 100 (expt.Context.Seed), tunes the same
// configuration to the same errors.
func TestValidateJobThreeWay(t *testing.T) {
	job := Job{Kind: KindValidate, Validate: &ValidateJob{Core: "a72", Budget1: 80, Budget2: 80, Scale: 0.001, Seed: 2, Quiet: true}}
	inputs := uint64(2*len(ubench.Suite()) + 6)
	cold, pristine := threeWay(t, job, inputs, inputs)
	warm, _, _ := warmFrom(t, job, pristine)
	if string(warm.TunedConfig) != string(cold.TunedConfig) {
		t.Errorf("warm validate job tuned another configuration:\n--- cold ---\n%s\n--- warm ---\n%s", cold.TunedConfig, warm.TunedConfig)
	}

	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	v := job.Validate
	stages, err := validate.Pipeline(plat.A72, sim.PublicA72(), validate.PaperStages(v.Budget1, v.Budget2), validate.PipelineOptions{
		Seed: v.Seed + 100, UbenchScale: v.Scale, Parallelism: 1,
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

// TestEveryKindAnswersFromThePaperSet: after an experiments job of Figs. 5
// and 6, a ubench -compare job of either core's suite at the same scale is
// the pipeline's untuned stage: it simulates nothing, generates no trace
// and prints that stage's mean error. A validate job for either core at
// the same sizes and seed is the pipeline those figures score. It
// simulates nothing, generates no trace, and tunes the last stage of
// Context.Stages(core) over the same cache. A run job of that
// configuration on every Table II workload, at the same length and seed,
// is answered from the cache too.
func TestEveryKindAnswersFromThePaperSet(t *testing.T) {
	const (
		scale            = 0.001
		events           = 2000
		budget1, budget2 = 100, 120
		seed             = 2
	)
	opts := Options{Cache: simcache.New(), TraceMemo: tracememo.New(0, 0), Capture: true}
	if _, err := Execute(Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "fig5,fig6", Scale: scale, Events: events, Budget1: budget1, Budget2: budget2, Seed: seed, Quiet: true,
	}}, opts); err != nil {
		t.Fatal(err)
	}
	x, err := expt.NewContext(expt.Options{
		UbenchScale: scale, BudgetRound1: budget1, BudgetRound2: budget2, Seed: seed,
		Cache: opts.Cache, TraceMemo: opts.TraceMemo,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []string{"a53", "a72"} {
		stages, err := x.Stages(core)
		if err != nil {
			t.Fatal(err)
		}
		before, traces := opts.Cache.Stats(), opts.TraceMemo.Stats()
		compared, err := Execute(Job{Kind: KindUbench, Ubench: &UbenchJob{Compare: "all", Core: core, Scale: scale}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if misses := compared.CacheStats.Misses - before.Misses; misses != 0 || compared.CacheStats.Hits == before.Hits {
			t.Errorf("ubench -compare %s: %d misses, %d hits after the paper set; want only hits", core, misses, compared.CacheStats.Hits-before.Hits)
		}
		if generated := opts.TraceMemo.Stats().Generated - traces.Generated; generated != 0 {
			t.Errorf("ubench -compare %s: %d traces generated after the paper set; want 0", core, generated)
		}
		if want := fmt.Sprintf("mean |CPI error| over %d benchmarks: %.1f%%", len(ubench.Suite()), stages[0].MeanError*100); !strings.Contains(compared.Artifact, want) {
			t.Errorf("ubench -compare %s does not print the untuned stage's %q:\n%s", core, want, compared.Artifact)
		}

		before = opts.Cache.Stats()
		res, err := Execute(Job{Kind: KindValidate, Validate: &ValidateJob{
			Core: core, Scale: scale, Budget1: budget1, Budget2: budget2, Seed: seed, Quiet: true,
		}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if misses := res.CacheStats.Misses - before.Misses; misses != 0 || res.CacheStats.Hits == before.Hits {
			t.Errorf("validate %s: %d misses, %d hits after the paper set; want only hits", core, misses, res.CacheStats.Hits-before.Hits)
		}
		if requested, generated := traceSummary(t, res.Log); requested == 0 || generated != 0 {
			t.Errorf("validate %s: traces: %d requested, %d generated; want 0 generated", core, requested, generated)
		}
		want, err := json.MarshalIndent(stages[len(stages)-1].Config, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(res.TunedConfig) != string(want)+"\n" {
			t.Errorf("validate %s tuned another model than the paper set's:\n--- job ---\n%s\n--- Stages ---\n%s", core, res.TunedConfig, want)
		}

		before = opts.Cache.Stats()
		run, err := Execute(Job{Kind: KindRun, Run: &RunJob{ConfigJSON: res.TunedConfig, Workload: "all", Events: events, Seed: seed}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if misses := run.CacheStats.Misses - before.Misses; misses != 0 || run.CacheStats.Hits-before.Hits != 11 {
			t.Errorf("run of the tuned %s model: %d misses, %d hits; want 0 misses, 11 hits", core, misses, run.CacheStats.Hits-before.Hits)
		}
	}
}

// TestDeferredInputsMaterializeOnMiss is a warm run with a cold spot: a
// validate job over the snapshot of the same job under another seed. The
// snapshot says what every input is, so none is generated up front; the
// boards' measurements are hits; but this seed's tuner asks for
// configurations the snapshot has never seen, on every worker at once, and
// the first miss on each input generates it. The job renders and tunes
// what it does with no snapshot at all. Run under -race in CI.
func TestDeferredInputsMaterializeOnMiss(t *testing.T) {
	seeded := func(seed int64) Job {
		return Job{Kind: KindValidate, Validate: &ValidateJob{Core: "a53", Budget1: 60, Budget2: 60, Scale: 0.001, Seed: seed, Quiet: true}}
	}
	snapshot := filepath.Join(t.TempDir(), "seed1.snap")
	if _, err := Execute(seeded(1), Options{CachePath: snapshot, Capture: true}); err != nil {
		t.Fatal(err)
	}
	want, err := Execute(seeded(2), Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(seeded(2), Options{CachePath: snapshot, Parallelism: 4, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Artifact != want.Artifact || string(got.TunedConfig) != string(want.TunedConfig) {
		t.Errorf("job over another seed's snapshot differs from the job alone:\n--- alone ---\n%s\n--- over the snapshot ---\n%s", want.Artifact, got.Artifact)
	}
	requested, generated := traceSummary(t, got.Log)
	inputs := 2*len(ubench.Suite()) + 6
	if got.CacheStats.Misses == 0 || got.CacheStats.Misses >= want.CacheStats.Misses ||
		requested != inputs || generated == 0 || generated > inputs {
		t.Errorf("%d simulations (alone: %d), %d traces requested, %d generated; want a partly warm run that generated some of its %d inputs, each at most once",
			got.CacheStats.Misses, want.CacheStats.Misses, requested, generated, inputs)
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
	if st := srv.memo.Stats(); st.Misses != toyAllDistinctTraces || st.Generated != toyAllDistinctTraces {
		t.Errorf("two concurrent jobs built %d traces, want each of the %d distinct ones once (%+v)", st.Generated, toyAllDistinctTraces, st)
	}
	// Everything the single job simulated, simulated once between the two.
	if got := srv.Cache().Stats().Misses; got != want.CacheStats.Misses {
		t.Errorf("two concurrent jobs ran %d simulations, a single job %d", got, want.CacheStats.Misses)
	}
}
