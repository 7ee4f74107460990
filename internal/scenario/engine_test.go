package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/simcache"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/version"
	"racesim/internal/workload"
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

// signalling wraps u so that the returned channel closes once u has run.
// Units of one run start together; a test unit that must act after another
// has finished waits on it.
func signalling(u Unit) (Unit, <-chan struct{}) {
	done := make(chan struct{})
	run := u.run
	u.run = func(ctx *expt.Context) (expt.Experiment, error) {
		defer close(done)
		return run(ctx)
	}
	return u, done
}

// blocker is a unit that returns only when its run is cancelled.
func blocker(id string) Unit {
	return Unit{ID: id, run: func(ectx *expt.Context) (expt.Experiment, error) {
		ctx := ectx.Options().Context
		<-ctx.Done()
		return expt.Experiment{}, ctx.Err()
	}}
}

// within runs fn and fails the test if it has not returned after d; a
// panic in fn is returned.
func within(t *testing.T, d time.Duration, fn func()) (panicked any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case p := <-done:
		return p
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
		return nil
	}
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
// unit, once the first has finished, by cancelling its context: Run returns
// the context's error, leaves what the first unit simulated at CachePath,
// and the full sweep re-run against that file matches a cache-less run
// while simulating less.
func TestPartialCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "checkpoint.snap")
	units := testUnits(t)

	ctx, cancel := context.WithCancel(context.Background())
	interrupted := append([]Unit(nil), units...)
	var firstDone <-chan struct{}
	interrupted[0], firstDone = signalling(interrupted[0])
	second := interrupted[1].run
	interrupted[1].run = func(ectx *expt.Context) (expt.Experiment, error) {
		<-firstDone
		cancel()
		return second(ectx)
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
	first, firstDone := signalling(testUnits(t)[0])
	units := []Unit{first, {ID: "broken", run: func(*expt.Context) (expt.Experiment, error) {
		<-firstDone
		return expt.Experiment{}, boom
	}}}
	if _, err := Run(units, RunOptions{Expt: tinyOpts(), CachePath: ck}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the unit's error", err)
	}
	o, cache := countingOpts()
	if _, err := Run(testUnits(t)[:1], RunOptions{Expt: o, CachePath: ck}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Errorf("re-run of the unit that finished: %+v, want every simulation from the snapshot", st)
	}
}

// TestBoundarySave: once saveInterval has passed, a unit that finishes
// while another still runs is saved before the other finishes — the other
// unit here waits for it in the file — and a save with nothing new since
// the last one — here the saves after the unit that simulated nothing —
// writes nothing.
func TestBoundarySave(t *testing.T) {
	defer func(d time.Duration) { saveInterval = d }(saveInterval)
	saveInterval = 0

	ck := filepath.Join(t.TempDir(), "boundary.snap")
	var atIdleEnd os.FileInfo
	units := append(testUnits(t)[:1:1], Unit{ID: "idle", run: func(*expt.Context) (expt.Experiment, error) {
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
			c := simcache.New()
			n, err := c.LoadFile(ck)
			c.Close()
			if err == nil && n > 0 {
				break
			}
			if time.Now().After(deadline) {
				return expt.Experiment{}, fmt.Errorf("the finished unit is not in the snapshot after a minute (%d entries, %v)", n, err)
			}
		}
		atIdleEnd, _ = os.Stat(ck)
		return expt.Experiment{}, nil
	}})
	o := tinyOpts()
	o.Parallelism = 2
	if _, err := Run(units, RunOptions{Expt: o, CachePath: ck}); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(ck); err != nil || !os.SameFile(after, atIdleEnd) {
		t.Errorf("a save rewrote a snapshot nothing was added to (stat error %v)", err)
	}
}

// TestFailingUnitStopsTheOthers: a unit that fails while a lower-indexed one
// is blocked cancels the run. Run returns within a bounded time, with the
// failing unit's own error — not the cancellation it caused in the blocked
// unit — naming the save that kept what a third unit simulated.
func TestFailingUnitStopsTheOthers(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "failing.snap")
	boom := errors.New("boom")
	sim, simDone := signalling(testUnits(t)[0])
	units := []Unit{blocker("blocked"), sim, {ID: "broken", run: func(*expt.Context) (expt.Experiment, error) {
		<-simDone
		return expt.Experiment{}, boom
	}}}
	o := tinyOpts()
	o.Parallelism = 2
	var err error
	within(t, time.Minute, func() { _, err = Run(units, RunOptions{Expt: o, CachePath: ck}) })
	if !errors.Is(err, boom) || errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want the broken unit's own error", err)
	}
	if !strings.Contains(err.Error(), "scenario broken: boom") || !strings.Contains(err.Error(), ck) {
		t.Errorf("error %q does not name the failing unit and the save", err)
	}
}

// TestPanickingUnitPanicsOnCaller: a panic inside a unit stops the other
// units and is raised again on the goroutine that called Run.
func TestPanickingUnitPanicsOnCaller(t *testing.T) {
	units := []Unit{blocker("blocked"), {ID: "bad", run: func(*expt.Context) (expt.Experiment, error) {
		panic("kaboom")
	}}}
	o := tinyOpts()
	o.Parallelism = 2
	if p := within(t, time.Minute, func() { Run(units, RunOptions{Expt: o}) }); p != "kaboom" {
		t.Errorf("Run's caller saw panic %v, want the unit's", p)
	}
}

// TestShares: a unit's share of the run runs from the later of the start
// and every earlier unit's finish to its own finish; the shares add up to
// the wall time, and for units run one after another they are the units'
// own durations.
func TestShares(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms ...int) []time.Time {
		out := make([]time.Time, len(ms))
		for i, m := range ms {
			out[i] = start.Add(time.Duration(m) * time.Millisecond)
		}
		return out
	}
	for _, tc := range []struct {
		finished []time.Time
		want     []time.Duration
	}{
		{at(30, 10, 50, 50), []time.Duration{30, 0, 20, 0}},
		{at(10, 20, 35), []time.Duration{10, 10, 15}},
		{at(5, 40, 12, 41), []time.Duration{5, 35, 0, 1}},
		{nil, []time.Duration{}},
	} {
		got := shares(start, tc.finished)
		for i := range tc.want {
			tc.want[i] *= time.Millisecond
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("shares(%v) = %v, want %v", tc.finished, got, tc.want)
		}
	}
}

// TestElapsedSharesSumToWallTime: with its units overlapping, a run's
// Elapsed figures are each >= 0 and add up to no more than Run's wall time,
// and to most of it.
func TestElapsedSharesSumToWallTime(t *testing.T) {
	o := tinyOpts()
	o.Parallelism = 2
	start := time.Now()
	res, err := Run(testUnits(t), RunOptions{Expt: o})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, r := range res {
		if r.Experiment.Elapsed < 0 {
			t.Errorf("%s: negative share %v", r.Unit.ID, r.Experiment.Elapsed)
		}
		sum += r.Experiment.Elapsed
	}
	if sum > wall || sum < wall/2 {
		t.Errorf("shares add up to %v, Run took %v", sum, wall)
	}
}

// TestOverlappedRunMatchesSequentialReference is the scheduler's
// differential: the paper set run with its units overlapping (parallelism 2
// and 8) and one at a time (1), each cold into a snapshot and then warm from
// it, renders the bytes of expt.Context.All, which runs the experiments one
// after another; and the three cold snapshots are byte for byte the same.
func TestOverlappedRunMatchesSequentialReference(t *testing.T) {
	specs, err := Select(Registry(), "all")
	if err != nil {
		t.Fatal(err)
	}
	units, err := Expand(specs)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(par int) expt.Options {
		o := tinyOpts()
		o.WorkloadEvents, o.BudgetRound1, o.BudgetRound2, o.PerturbRestarts = 1_000, 60, 60, 1
		o.Seed, o.Parallelism = 1, par
		return o
	}
	ctx, err := expt.NewContext(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	all, err := ctx.All()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, e := range all {
		want.WriteString(e.Render() + "\n")
	}

	var coldSnap []byte
	for _, par := range []int{1, 2, 8} {
		ck := filepath.Join(t.TempDir(), "paper.snap")
		for _, warmth := range []string{"cold", "warm"} {
			o := opts(par)
			cache := simcache.New()
			o.Cache = cache
			res, err := Run(units, RunOptions{Expt: o, CachePath: ck})
			if err != nil {
				t.Fatalf("parallelism %d, %s: %v", par, warmth, err)
			}
			if got := RenderAll(res); got != want.String() {
				t.Errorf("parallelism %d, %s: rendered output differs from expt.Context.All", par, warmth)
			}
			if warmth == "warm" {
				if st := cache.Stats(); st.Misses != 0 {
					t.Errorf("parallelism %d, warm: %d simulations", par, st.Misses)
				}
				continue
			}
			snap, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			if coldSnap == nil {
				coldSnap = snap
			} else if !bytes.Equal(snap, coldSnap) {
				t.Errorf("parallelism %d: the cold snapshot differs from parallelism 1's", par)
			}
		}
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

// TestExtraScenarioKinds runs tiny budget-sweep and noise-sweep studies
// end to end: every cell renders one experiment and the reported
// evaluation spend respects the exact budget cap.
func TestExtraScenarioKinds(t *testing.T) {
	specs := []Spec{
		{Name: "bs", Kind: KindStudy, Cores: []string{"a53"}, Budgets: []int{60, 120}},
		{Name: "ns", Kind: KindStudy, Cores: []string{"a53"}, NoiseLevels: []float64{0, 0.02}, Budgets: []int{60}},
	}
	units, err := Expand(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 {
		t.Fatalf("expanded %d units, want 4", len(units))
	}
	wantIDs := []string{"bs/budget=60", "bs/budget=120", "ns/noise=0", "ns/noise=0.02"}
	res, err := Run(units, RunOptions{Expt: tinyOpts()})
	if err != nil {
		t.Fatal(err)
	}
	spend := regexp.MustCompile(`(?m)^tuned +(\d+)/(\d+) `)
	for i, r := range res {
		if r.Experiment.ID != units[i].ID || r.Experiment.ID != wantIDs[i] {
			t.Errorf("result %d has ID %s, want %s (unit %s)", i, r.Experiment.ID, wantIDs[i], units[i].ID)
		}
		if r.Experiment.Body == "" || r.Experiment.Measured == "" {
			t.Errorf("unit %s rendered an empty experiment", units[i].ID)
		}
		m := spend.FindStringSubmatch(r.Experiment.Body)
		if m == nil {
			t.Errorf("unit %s renders no tuned row:\n%s", units[i].ID, r.Experiment.Body)
			continue
		}
		used, _ := strconv.Atoi(m[1])
		budget, _ := strconv.Atoi(m[2])
		if used <= 0 || used > budget {
			t.Errorf("unit %s spent %d evaluations of a %d budget", units[i].ID, used, budget)
		}
	}
}

// TestSweepRoundsStopOnCancellation: a budget-sweep or noise-sweep cell
// whose context is cancelled returns context.Canceled before its tuning
// round simulates anything — no later than the round's first race step.
func TestSweepRoundsStopOnCancellation(t *testing.T) {
	units, err := Expand([]Spec{
		{Name: "bs", Kind: KindStudy, Cores: []string{"a53"}, Budgets: []int{600}},
		{Name: "ns", Kind: KindStudy, Cores: []string{"a53"}, NoiseLevels: []float64{0.02}, Budgets: []int{600}},
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
		if _, err := u.Run(ectx); !errors.Is(err, context.Canceled) {
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
		{Name: "ns", Kind: KindStudy, Cores: []string{"a72"}, NoiseLevels: []float64{0, 0.02, 0.05}, Budgets: []int{60}},
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
	// Each cell also scores the A72's held-out Table II workloads, built
	// once for all three cells too.
	suite := uint64(len(ubench.Suite()))
	inputs := suite + uint64(len(workload.Profiles()))
	if st := coldOpts.TraceMemo.Stats(); st.Misses != inputs || st.Hits != 2*inputs {
		t.Errorf("memo: %+v, want the suite and the workloads built once for three boards", st)
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
