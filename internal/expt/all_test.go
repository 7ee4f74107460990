package expt

import (
	"path/filepath"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/simcache"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/version"
)

// expOptions sizes a full All() run small enough for tests while still
// exercising both tuning pipelines, the spec workloads and the
// perturbation study.
func expOptions(parallelism int, cache *simcache.Cache) Options {
	return Options{
		UbenchScale:     0.001,
		WorkloadEvents:  2_000,
		BudgetRound1:    60,
		BudgetRound2:    60,
		PerturbRestarts: 1,
		Parallelism:     parallelism,
		Cache:           cache,
	}
}

func renderAll(t *testing.T, opts Options) string {
	t.Helper()
	ctx, err := NewContext(opts)
	if err != nil {
		t.Fatal(err)
	}
	return renderContext(t, ctx)
}

func renderContext(t *testing.T, ctx *Context) string {
	t.Helper()
	exps, err := ctx.All()
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, e := range exps {
		out += e.Render()
	}
	return out
}

// A full All() run asks for 307 traces — the raw suite for Table I, Fig. 2
// and both pipelines (4 x 40), the initialized suite and the six lmbench
// traces for both pipelines (2 x 46), the 11 Table II workloads for
// Table II and once per figure 5-8 (5 x 11) — of which 97 are distinct
// (40 + 40 + 6 + 11), and measures 256 of them on a board: the suite for
// Fig. 2 (40), two pipelines (2 x 86) and the workloads for figures 5-8
// (4 x 11). 120 of those are distinct replays: 40 raw, the 3 benchmarks
// the initialization changes, 6 lmbench and 11 workload traces per core.
const (
	allTraceRequests  = 307
	allDistinctTraces = 97
	allBoardMeasures  = 256
	allBoardReplays   = 120
)

// TestAllParallelByteIdenticalToSequential is the three-way differential
// over a full run: the direct path (sequential, every trace generated on
// request, every board measurement and simulation replayed — no memo, no
// cache), a cold parallel run into a snapshot, and a warm run from that
// snapshot render the same bytes. The cold run builds each distinct input
// once, remembers in the cache what it was, and replays each distinct
// (board, trace) pair once; the warm run asks for the same inputs, builds
// none of them — the snapshot says what they are — looks up exactly what
// the cold run looked up, its board measurements included, and replays
// nothing.
func TestAllParallelByteIdenticalToSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	direct, err := NewContext(expOptions(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	direct.memo = nil // a context always has one; the direct path does not
	seq := renderContext(t, direct)

	coldCache := simcache.New()
	coldMemo := tracememo.New(0, 0).WithIdentities(coldCache.TraceIdentities(version.BuildID()))
	opts := expOptions(8, coldCache)
	opts.TraceMemo = coldMemo
	cold := renderAll(t, opts)
	if seq != cold {
		t.Errorf("parallel cached output differs from the direct path's:\n--- direct ---\n%s\n--- parallel ---\n%s", seq, cold)
	}
	if st := coldMemo.Stats(); st.Misses != allDistinctTraces || st.Generated != allDistinctTraces || st.Hits != allTraceRequests-allDistinctTraces {
		t.Errorf("cold run: memo %+v, want %d traces built and %d requests answered", st, allDistinctTraces, allTraceRequests-allDistinctTraces)
	}
	snap := filepath.Join(t.TempDir(), "all.snap")
	if err := coldCache.SaveFile(snap); err != nil {
		t.Fatal(err)
	}

	warmCache := simcache.New()
	warmMemo := tracememo.New(0, 0).WithIdentities(warmCache.TraceIdentities(version.BuildID()))
	if _, _, err := warmCache.LoadChecked(snap); err != nil {
		t.Fatal(err)
	}
	defer warmCache.Close()
	opts = expOptions(8, warmCache)
	opts.TraceMemo = warmMemo
	if warm := renderAll(t, opts); warm != cold {
		t.Error("warm run from the snapshot changed the rendered output")
	}
	cs, ws := coldCache.Stats(), warmCache.Stats()
	if ws.Misses != 0 || ws.Hits+ws.Shared != cs.Hits+cs.Misses+cs.Shared {
		t.Errorf("warm run: %+v; want no replay and the cold run's %d lookups (a board measurement that bypassed the cache would be missing)",
			ws, cs.Hits+cs.Misses+cs.Shared)
	}
	if st := warmMemo.Stats(); st.Misses != allDistinctTraces || st.Generated != 0 || st.Hits != allTraceRequests-allDistinctTraces {
		t.Errorf("warm run: memo %+v, want %d traces asked for %d times and none built", st, allDistinctTraces, allTraceRequests)
	}

	// The board's replays are entries of the snapshot, under the keys of
	// the hidden configurations, and account for what the cache holds
	// beyond the models' simulations.
	plat := direct.Platform()
	var onDisk int
	for _, b := range ubench.Suite() {
		tr, err := warmMemo.Ubench(b, ubench.Options{Scale: opts.UbenchScale})
		if err != nil {
			t.Fatal(err)
		}
		for _, board := range []*hw.Board{plat.A53, plat.A72} {
			if _, err := warmCache.Disk().Get(simcache.Key(board.TrueConfig(), tr)); err == nil {
				onDisk++
			}
		}
	}
	if onDisk != 2*len(ubench.Suite()) {
		t.Errorf("snapshot holds %d of the %d raw-suite board replays", onDisk, 2*len(ubench.Suite()))
	}

	// Without the boards in the cache (the same run on boards that replay
	// every measurement) the cache sees exactly allBoardMeasures fewer
	// lookups and holds allBoardReplays fewer entries (both caches hold the
	// allDistinctTraces trace identities beside their results).
	bare, err := NewContext(expOptions(8, simcache.New()))
	if err != nil {
		t.Fatal(err)
	}
	bare.plat = bare.plat.WithCache(nil)
	if got := renderContext(t, bare); got != cold {
		t.Error("run on uncached boards changed the rendered output")
	}
	bs := bare.opts.Cache.Stats()
	if d := (cs.Hits + cs.Misses + cs.Shared) - (bs.Hits + bs.Misses + bs.Shared); d != allBoardMeasures {
		t.Errorf("caching the boards added %d lookups, want the %d board measurements", d, allBoardMeasures)
	}
	if d := cs.Entries - bs.Entries; d != allBoardReplays {
		t.Errorf("caching the boards added %d entries, want the %d distinct replays", d, allBoardReplays)
	}
}

// TestAllWarmCacheMostlyHits: a rerun over the same in-memory cache (a
// serve worker's steady state) renders the same bytes and replays nothing.
func TestAllWarmCacheMostlyHits(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	cache := simcache.New()
	first := renderAll(t, expOptions(4, cache))
	cold := cache.Stats()
	second := renderAll(t, expOptions(4, cache))
	warm := cache.Stats()
	if first != second {
		t.Error("warm-cache rerun changed the rendered output")
	}
	hits := warm.Hits - cold.Hits + (warm.Shared - cold.Shared)
	if hits == 0 {
		t.Fatal("second run performed no cache lookups")
	}
	if misses := warm.Misses - cold.Misses; misses != 0 {
		t.Errorf("warm rerun replayed %d simulations (%d hits); the boards' included, it should replay none", misses, hits)
	}
}
