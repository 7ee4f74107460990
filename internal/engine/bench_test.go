package engine

import (
	"path/filepath"
	"runtime"
	"testing"

	"racesim/internal/simcache"
	"racesim/internal/tracememo"
)

// BenchmarkEngineJobsWarmCache measures end-to-end engine job throughput
// (jobs/sec) in the serve steady state: a small micro-benchmark suite
// executed repeatedly against one shared warm cache and one shared trace
// memo — exactly what the serve worker pool holds — so every simulation
// is answered from memory, repeat traces skip emulation and decode, and
// the measured cost is the engine lifecycle itself — job normalization,
// runner dispatch, cache lookups and artifact rendering. Recorded in
// BENCH_engine.json.
func BenchmarkEngineJobsWarmCache(b *testing.B) {
	cache := simcache.New()
	memo := tracememo.New(0, 0)
	opts := Options{Cache: cache, TraceMemo: memo, Capture: true}
	job := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD,CS1,MIP", Scale: 0.002}}
	res, err := Execute(job, opts)
	if err != nil {
		b.Fatal(err)
	}
	want := res.Artifact
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute(job, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Artifact != want {
			b.Fatal("artifact drifted across warm executions")
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Misses != 3 {
		b.Fatalf("warm loop was not pure cache hits: %+v", st)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkEngineExperimentsWarmCache times a warm single-scenario sweep
// job (table2 — the eleven workloads and rendering, no tuner), the shape a
// serve worker executes between cache refreshes. Each job gets a private
// memo over the shared cache, which remembers from the warm-up job what
// the workloads are: the measured jobs synthesize nothing.
func BenchmarkEngineExperimentsWarmCache(b *testing.B) {
	cache := simcache.New()
	job := Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "table2", Scale: 0.002, Events: 4000, Quiet: true,
	}}
	if _, err := Execute(job, Options{Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(job, Options{Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkEngineExperimentsWarmAll is the warm journey with the
// end-to-end shape: `experiments -scenario all` at the repository
// benchmark's toy sizes (both pipelines, the tuner, the boards, the
// perturbation study), answered from a fresh copy of the snapshot a cold
// run wrote in set-up — what the benchmark's paper_warm workload times.
// The table2 benchmark above has no suite, no tuner and no board, and
// never saw what a warm run spent its time on. Reports ms/job, the bytes
// and objects the job allocated (bytes/job, allocs/job: the set-up copy of
// the snapshot left out), the traces the job had to generate (read off its
// stderr summary; 0 expected: the snapshot says what they are) and the
// simulations it replayed (board measurements included; 0 expected).
// Recorded in BENCH_engine.json.
func BenchmarkEngineExperimentsWarmAll(b *testing.B) {
	pristine := filepath.Join(b.TempDir(), "pristine.snap")
	cold, err := Execute(toyAll(), Options{CachePath: pristine, Capture: true})
	if err != nil {
		b.Fatal(err)
	}
	var generated, replayed, bytes, allocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work, _ := agedCopy(b, pristine)
		runtime.ReadMemStats(&before)
		b.StartTimer()
		res, err := Execute(toyAll(), Options{CachePath: work, Capture: true})
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.StartTimer()
		bytes += after.TotalAlloc - before.TotalAlloc
		allocs += after.Mallocs - before.Mallocs
		if err != nil {
			b.Fatal(err)
		}
		if res.Artifact != cold.Artifact {
			b.Fatal("warm artifact differs from the cold run's")
		}
		_, g := traceSummary(b, res.Log)
		generated += uint64(g)
		replayed += res.CacheStats.Misses
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/job")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/job")
	b.ReportMetric(float64(allocs)/float64(b.N), "allocs/job")
	b.ReportMetric(float64(generated)/float64(b.N), "traces-generated/job")
	b.ReportMetric(float64(replayed)/float64(b.N), "replays/job")
}
