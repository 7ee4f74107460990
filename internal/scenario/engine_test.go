package scenario

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// testUnits expands a cheap three-unit selection (fig2, table1, table2):
// one unit that simulates and two that only list, no full pipelines.
func testUnits(t *testing.T) []Unit {
	t.Helper()
	specs, err := Select(Registry(), "fig2,table1,table2")
	if err != nil {
		t.Fatal(err)
	}
	units, err := Expand(specs)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

// countingOpts is tinyOpts over a fresh in-memory cache whose counters the
// test reads afterwards.
func countingOpts() (expt.Options, *simcache.Cache) {
	o := tinyOpts()
	o.Cache = simcache.New()
	return o, o.Cache
}

// TestResumeReplaysFromCheckpoint runs a sweep against a snapshot path,
// then re-runs it cold against the same file: the replay must render
// identically and answer every simulation from the cache.
func TestResumeReplaysFromCheckpoint(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "checkpoint.snap")
	units := testUnits(t)

	first, err := Run(units, RunOptions{Expt: tinyOpts(), CachePath: ck})
	if err != nil {
		t.Fatal(err)
	}

	o, cache := countingOpts()
	second, err := Run(units, RunOptions{Expt: o, CachePath: ck})
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

// TestPartialCheckpointResume interrupts a sweep from inside its second
// unit by cancelling its context: Run returns the context's error, leaves
// what the first unit simulated at CachePath, and the full sweep re-run
// against that file matches a cache-less run while simulating less.
func TestPartialCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "checkpoint.snap")
	units := testUnits(t)

	ctx, cancel := context.WithCancel(context.Background())
	interrupted := append([]Unit(nil), units...)
	second := interrupted[1].run
	interrupted[1].run = func(rt *Runtime) (expt.Experiment, error) {
		cancel()
		return second(rt)
	}
	o := tinyOpts()
	o.Context = ctx
	res, err := Run(interrupted, RunOptions{Expt: o, CachePath: ck})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("interrupted run returned %d results and %v, want context.Canceled", len(res), err)
	}
	if !strings.Contains(err.Error(), ck) {
		t.Errorf("error %q does not say where it saved", err)
	}
	if n, err := simcache.New().LoadFile(ck); err != nil || n == 0 {
		t.Fatalf("snapshot after the interrupt: %d entries, %v", n, err)
	}

	o, cold := countingOpts()
	full, err := Run(units, RunOptions{Expt: o})
	if err != nil {
		t.Fatal(err)
	}
	o, warm := countingOpts()
	resumed, err := Run(units, RunOptions{Expt: o, CachePath: ck})
	if err != nil {
		t.Fatal(err)
	}
	if RenderAll(full) != RenderAll(resumed) {
		t.Error("resumed full sweep rendered different output than a fresh one")
	}
	if c, w := cold.Stats().Misses, warm.Stats().Misses; w >= c {
		t.Errorf("resumed sweep simulated %d times, the cold one %d: nothing was picked up", w, c)
	}
}

// TestFailedUnitStillSaves: a unit failing after others simulated costs
// the run its result, not its simulations.
func TestFailedUnitStillSaves(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "failed.snap")
	boom := errors.New("boom")
	units := append(testUnits(t)[:1:1], Unit{ID: "broken", run: func(*Runtime) (expt.Experiment, error) {
		return expt.Experiment{}, boom
	}})
	if _, err := Run(units, RunOptions{Expt: tinyOpts(), CachePath: ck}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the unit's error", err)
	}
	o, cache := countingOpts()
	if _, err := Run(units[:1], RunOptions{Expt: o, CachePath: ck}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Errorf("re-run of the unit that finished: %+v, want every simulation from the snapshot", st)
	}
}

// TestBoundarySave: once saveInterval has passed, the snapshot is written
// before the next unit starts, and a save with nothing new since the last
// one — here the exit-path save after a unit that simulated nothing —
// writes nothing.
func TestBoundarySave(t *testing.T) {
	defer func(d time.Duration) { saveInterval = d }(saveInterval)
	saveInterval = 0

	ck := filepath.Join(t.TempDir(), "boundary.snap")
	var atLastUnit os.FileInfo
	units := append(testUnits(t)[:1:1], Unit{ID: "idle", run: func(*Runtime) (expt.Experiment, error) {
		n, err := simcache.New().LoadFile(ck)
		if err != nil || n == 0 {
			t.Errorf("snapshot when the last unit starts: %d entries, %v", n, err)
		}
		atLastUnit, _ = os.Stat(ck)
		return expt.Experiment{}, nil
	}})
	if _, err := Run(units, RunOptions{Expt: tinyOpts(), CachePath: ck}); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(ck); err != nil || !os.SameFile(after, atLastUnit) {
		t.Errorf("the exit-path save rewrote a snapshot nothing was added to (stat error %v)", err)
	}
}

// TestEmptyUnitListRuns confirms a run of no units (a selection filtered
// down to nothing) is a clean no-op.
func TestEmptyUnitListRuns(t *testing.T) {
	res, err := Run(nil, RunOptions{Expt: tinyOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || RenderAll(res) != "" {
		t.Errorf("empty unit list produced %d results", len(res))
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

// TestSweepRoundsStopOnCancellation: a budget-sweep or noise-sweep unit
// whose context is cancelled returns context.Canceled before its tuning
// round simulates anything — no later than the round's first race step.
func TestSweepRoundsStopOnCancellation(t *testing.T) {
	units, err := Expand([]Spec{
		{Name: "bs", Kind: KindBudgetSweep, Core: "a53", Budgets: []int{600}},
		{Name: "ns", Kind: KindNoiseSweep, Core: "a53", NoiseLevels: []float64{0.02}, Budget: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		o, cache := countingOpts()
		o.Context = ctx
		ectx, err := expt.NewContext(o)
		if err != nil {
			t.Fatal(err)
		}
		// Measuring the suite and scoring the untuned model run before the
		// round, and do not look at the context.
		before := uint64(2 * len(ubench.Suite()))
		if _, err := u.Run(&Runtime{Ctx: ectx}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled unit returned %v, want context.Canceled", u.ID, err)
		}
		if misses := cache.Stats().Misses; misses > before {
			t.Errorf("%s: %d simulations after cancellation, want at most the %d before the round", u.ID, misses, before)
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
