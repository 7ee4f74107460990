package scenario

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/simcache"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/version"
)

// tinyOpts keeps engine tests at seconds scale.
func tinyOpts() expt.Options {
	return expt.Options{
		UbenchScale:    0.001,
		WorkloadEvents: 4_000,
		BudgetRound1:   200,
		BudgetRound2:   200,
	}
}

// testUnits expands a cheap three-unit selection (table1, table2, fig2):
// enough to make 2- and 3-way shards non-trivial, no full pipelines.
func testUnits(t *testing.T) []Unit {
	t.Helper()
	specs, err := Select(Registry(), "table1,table2,fig2")
	if err != nil {
		t.Fatal(err)
	}
	units, err := Expand(specs)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

// TestShardedOutputByteIdentical is the fleet contract: for any shard
// count n, concatenating the rendered outputs of shards 1..n — each run
// in its own engine, as separate processes would — reproduces the
// unsharded artifact byte for byte.
func TestShardedOutputByteIdentical(t *testing.T) {
	units := testUnits(t)
	full, err := Run(units, RunOptions{Expt: tinyOpts()})
	if err != nil {
		t.Fatal(err)
	}
	want := RenderAll(full)
	if want == "" {
		t.Fatal("unsharded run rendered nothing")
	}
	for n := 2; n <= 3; n++ {
		var merged string
		for i := 1; i <= n; i++ {
			res, err := Run(Shard(units, i, n), RunOptions{Expt: tinyOpts()})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			merged += RenderAll(res)
		}
		if merged != want {
			t.Errorf("n=%d: merged shard output differs from unsharded run", n)
		}
	}
}

// TestResumeReplaysFromCheckpoint runs a sweep with a checkpoint, then
// re-runs it cold against the same checkpoint file: the replay must
// render identically and answer (nearly) every simulation from the cache.
func TestResumeReplaysFromCheckpoint(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "checkpoint.json")
	units := testUnits(t)

	first, err := Run(units, RunOptions{
		Expt:            tinyOpts(),
		CachePath:       ck,
		Checkpoint:      true,
		CheckpointEvery: time.Hour, // unit-boundary checkpoints only: deterministic
	})
	if err != nil {
		t.Fatal(err)
	}

	cache := simcache.New()
	o := tinyOpts()
	o.Cache = cache
	second, err := Run(units, RunOptions{
		Expt:            o,
		CachePath:       ck,
		Checkpoint:      true,
		CheckpointEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if RenderAll(first) != RenderAll(second) {
		t.Error("resumed run rendered different output")
	}
	st := cache.Stats()
	if st.Misses != 0 {
		t.Errorf("resumed run missed %d simulations (hits %d): checkpoint incomplete", st.Misses, st.Hits)
	}
	if st.HitRate() < 0.95 {
		t.Errorf("resumed run hit rate %.1f%%, want >= 95%%", st.HitRate()*100)
	}
}

// TestPartialCheckpointResume interrupts a sweep after its first unit (by
// running only shard 1/3) and then runs the full sweep against the same
// checkpoint: the completed unit's simulations must replay as hits, and
// the final output must match an uncheckpointed full run.
func TestPartialCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "checkpoint.json")
	units := testUnits(t)

	if _, err := Run(Shard(units, 1, 3), RunOptions{
		Expt: tinyOpts(), CachePath: ck, Checkpoint: true, CheckpointEvery: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}

	full, err := Run(units, RunOptions{Expt: tinyOpts()})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(units, RunOptions{
		Expt: tinyOpts(), CachePath: ck, Checkpoint: true, CheckpointEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if RenderAll(full) != RenderAll(resumed) {
		t.Error("resumed full sweep rendered different output than a fresh one")
	}
}

// TestEmptyShardRuns confirms a shard with no units (more shards than
// units) is a clean no-op, so fleet schedulers need no special casing.
func TestEmptyShardRuns(t *testing.T) {
	units := testUnits(t)
	empty := Shard(units, 1, 7) // 3 units over 7 shards: shard 1 gets none
	if len(empty) != 0 {
		t.Fatalf("expected an empty shard, got %d units", len(empty))
	}
	res, err := Run(empty, RunOptions{Expt: tinyOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || RenderAll(res) != "" {
		t.Errorf("empty shard produced %d results", len(res))
	}
}

// TestExtraScenarioKinds runs tiny budget-sweep and noise-sweep scenarios
// end to end: every sweep point renders one experiment and the reported
// evaluation spend respects the exact budget cap.
func TestExtraScenarioKinds(t *testing.T) {
	specs := []Spec{
		{Name: "bs", Kind: KindBudgetSweep, Core: "a53", Budgets: []int{60, 120}},
		{Name: "ns", Kind: KindNoiseSweep, Core: "a53", NoiseLevels: []float64{0, 0.02}, Budget: 60},
	}
	units, err := Expand(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 {
		t.Fatalf("expanded %d units, want 4", len(units))
	}
	res, err := Run(units, RunOptions{Expt: tinyOpts()})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Experiment.ID != units[i].ID {
			t.Errorf("result %d has ID %s, want %s", i, r.Experiment.ID, units[i].ID)
		}
		if r.Experiment.Body == "" || r.Experiment.Measured == "" {
			t.Errorf("unit %s rendered an empty experiment", units[i].ID)
		}
	}
}

// TestNoiseSweepMeasuresTheBoardOnce is the three-way differential for a
// noise sweep: without a cache (every re-noised board replays the suite),
// cold into a snapshot and warm from it, the sweep renders the same bytes.
// Its three boards share one hidden configuration, so the suite is built
// once and replayed once for all of them, and the warm sweep replays
// nothing and leaves its snapshot alone.
func TestNoiseSweepMeasuresTheBoardOnce(t *testing.T) {
	units, err := Expand([]Spec{
		{Name: "ns", Kind: KindNoiseSweep, Core: "a72", NoiseLevels: []float64{0, 0.02, 0.05}, Budget: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	render := func(opts RunOptions) string {
		t.Helper()
		res, err := Run(units, opts)
		if err != nil {
			t.Fatal(err)
		}
		return RenderAll(res)
	}
	direct := render(RunOptions{Expt: tinyOpts()})

	snap := filepath.Join(t.TempDir(), "noise.snap")
	coldOpts := tinyOpts()
	coldOpts.Cache = simcache.New()
	coldOpts.TraceMemo = tracememo.New(0, 0).WithIdentities(coldOpts.Cache.TraceIdentities(version.BuildID()))
	if cold := render(RunOptions{Expt: coldOpts, CachePath: snap}); cold != direct {
		t.Errorf("cached noise sweep differs from the uncached one:\n--- uncached ---\n%s\n--- cached ---\n%s", direct, cold)
	}
	suite := uint64(len(ubench.Suite()))
	if st := coldOpts.TraceMemo.Stats(); st.Misses != suite || st.Hits != 2*suite {
		t.Errorf("memo: %+v, want the suite built once for three boards", st)
	}
	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ubench.Suite() {
		tr, err := coldOpts.TraceMemo.Ubench(b, ubench.Options{Scale: coldOpts.UbenchScale})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := coldOpts.Cache.Peek(simcache.Key(plat.A72.TrueConfig(), tr)); !ok {
			t.Errorf("no board replay of %s in the cache", b.Name)
		}
	}
	before, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}

	warmOpts := tinyOpts()
	warmOpts.Cache = simcache.New()
	defer warmOpts.Cache.Close()
	if warm := render(RunOptions{Expt: warmOpts, CachePath: snap}); warm != direct {
		t.Error("warm noise sweep changed the rendered output")
	}
	cs, ws := coldOpts.Cache.Stats(), warmOpts.Cache.Stats()
	if ws.Misses != 0 || ws.Hits+ws.Shared != cs.Hits+cs.Misses+cs.Shared {
		t.Errorf("warm sweep: %+v; want no replay and the cold sweep's %d lookups", ws, cs.Hits+cs.Misses+cs.Shared)
	}
	if after, err := os.Stat(snap); err != nil || !os.SameFile(after, before) {
		t.Errorf("the warm sweep rewrote a snapshot it added nothing to (stat error %v)", err)
	}
}
