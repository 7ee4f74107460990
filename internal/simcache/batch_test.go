package simcache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// batchConfigs is a mixed submission: both core kinds and both decoder
// variants (the presets ship with the decoder bug on), so a grid over it
// replays every trace's two decodes.
func batchConfigs() []sim.Config {
	a53fix := sim.PublicA53()
	a53fix.DecoderDepBug = false
	a72fix := sim.PublicA72()
	a72fix.DecoderDepBug = false
	return []sim.Config{sim.PublicA53(), a53fix, sim.PublicA72(), a72fix}
}

func batchTraces(t *testing.T) []*trace.Trace {
	return []*trace.Trace{testTrace(t, "MD"), testTrace(t, "MC"), testTrace(t, "CS1")}
}

// directGrid simulates the grid without any cache, configuration-major.
func directGrid(t *testing.T, cfgs []sim.Config, trs []*trace.Trace) []core.Result {
	t.Helper()
	var want []core.Result
	for _, cfg := range cfgs {
		for _, tr := range trs {
			res, err := cfg.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
	}
	return want
}

func sameResults(t *testing.T, what string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d", what, len(got), len(want))
		return
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: slot %d differs from an uncached run of its pair", what, k)
		}
	}
}

// TestRunBatchMatchesRun: results come back in caller order,
// configuration-major, whatever the pool width, and each pair is what Run
// gives.
func TestRunBatchMatchesRun(t *testing.T) {
	cfgs, trs := batchConfigs(), batchTraces(t)
	want := directGrid(t, cfgs, trs)
	for _, parallelism := range []int{1, 2, 8} {
		c := New()
		got, err := c.RunBatch(context.Background(), cfgs, trs, parallelism, nil)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		sameResults(t, "fresh grid", got, want)
		if st := c.Stats(); st.Misses != uint64(len(want)) || st.Hits != 0 || st.Shared != 0 {
			t.Errorf("parallelism %d: stats %+v, want %d misses and nothing else", parallelism, st, len(want))
		}
		for k, res := range want {
			one, err := c.Run(cfgs[k/len(trs)], trs[k%len(trs)])
			if err != nil || one != res {
				t.Errorf("parallelism %d: Run of pair %d after the grid: %v, equal=%v", parallelism, k, err, one == res)
			}
		}
	}
}

// TestRunBatchHitsAndIntraBatchDuplicates: a pair is simulated once however
// often it is asked for — stored before the grid, repeated inside it, or
// submitted by a second grid running at the same time.
func TestRunBatchHitsAndIntraBatchDuplicates(t *testing.T) {
	base, trs := batchConfigs(), batchTraces(t)
	c := New()
	warm, err := c.Run(base[0], trs[0])
	if err != nil {
		t.Fatal(err)
	}

	// 4 x 3 = 12 lookups over 2 x 2 = 4 distinct pairs, one already stored.
	cfgs := []sim.Config{base[0], base[2], base[0], base[2]}
	dup := []*trace.Trace{trs[0], trs[1], trs[0]}
	want := directGrid(t, cfgs, dup)
	const grids = 2
	var wg sync.WaitGroup
	for g := 0; g < grids; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.RunBatch(context.Background(), cfgs, dup, 4, nil)
			if err != nil {
				t.Error(err)
				return
			}
			sameResults(t, "duplicated grid", got, want)
			if got[0] != warm {
				t.Error("stored entry changed through the grid")
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 4 {
		t.Errorf("%d simulations, want 4: one per distinct pair (stats %+v)", st.Misses, st)
	}
	if lookups := uint64(1 + grids*len(want)); st.Hits+st.Shared+st.Misses != lookups {
		t.Errorf("stats %+v do not add up to %d lookups", st, lookups)
	}
	if st.Entries != 4 {
		t.Errorf("%d entries, want 4", st.Entries)
	}
}

func TestRunBatchNilCache(t *testing.T) {
	cfgs, trs := batchConfigs(), batchTraces(t)
	var c *Cache
	got, err := c.RunBatch(context.Background(), cfgs, trs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "nil cache", got, directGrid(t, cfgs, trs))
}

// TestRunBatchInvalidConfigPoisonsOnlyItsSlot: of two failing
// configurations the lower-indexed one is reported, by name and trace, for
// any pool width; nothing is stored for a failed pair and every other pair
// still resolves to its own result.
func TestRunBatchInvalidConfigPoisonsOnlyItsSlot(t *testing.T) {
	trs := batchTraces(t)[:2]
	first, second := sim.PublicA53(), sim.PublicA72()
	first.Kind, first.Name = "bogus", "first-bad"
	second.Kind, second.Name = "bogus", "second-bad"
	cfgs := []sim.Config{sim.PublicA53(), first, sim.PublicA72(), second}
	healthy := []sim.Config{cfgs[0], cfgs[2]}
	want := directGrid(t, healthy, trs)

	for _, parallelism := range []int{1, 2, 8} {
		c := New()
		got, err := c.RunBatch(context.Background(), cfgs, trs, parallelism, nil)
		if err == nil || got != nil {
			t.Fatalf("parallelism %d: a grid holding invalid configurations returned %d results, error %v", parallelism, len(got), err)
		}
		for _, name := range []string{"first-bad", trs[0].Name} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("parallelism %d: error %q does not name %s", parallelism, err, name)
			}
		}
		if strings.Contains(err.Error(), "second-bad") {
			t.Errorf("parallelism %d: error %q is not the lowest-indexed failure", parallelism, err)
		}
		before := c.Stats()
		if before.Entries > len(want) {
			t.Errorf("parallelism %d: %d entries, more than the %d healthy pairs", parallelism, before.Entries, len(want))
		}
		got, err = c.RunBatch(context.Background(), healthy, trs, parallelism, nil)
		if err != nil {
			t.Fatalf("parallelism %d: healthy pairs after the failed grid: %v", parallelism, err)
		}
		sameResults(t, "healthy pairs after the failed grid", got, want)
		// What the failed grid did finish was memoized.
		if st := c.Stats(); st.Hits-before.Hits != uint64(before.Entries) {
			t.Errorf("parallelism %d: %d entries stored by the failed grid, %d hits on them", parallelism, before.Entries, st.Hits-before.Hits)
		}
	}
}

func TestRunBatchEmpty(t *testing.T) {
	c := New()
	for _, g := range []struct {
		cfgs []sim.Config
		trs  []*trace.Trace
	}{{nil, batchTraces(t)}, {batchConfigs(), nil}, {nil, nil}} {
		rs, err := c.RunBatch(context.Background(), g.cfgs, g.trs, 4, nil)
		if len(rs) != 0 || err != nil {
			t.Errorf("%d x %d grid returned %d results, error %v", len(g.cfgs), len(g.trs), len(rs), err)
		}
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Errorf("empty grids simulated: %+v", st)
	}
}

// TestRunBatchCancelledContextStopsDispatch: cancellation lets the
// simulations in flight finish and starts no other.
func TestRunBatchCancelledContextStopsDispatch(t *testing.T) {
	cfgs, trs := batchConfigs(), batchTraces(t)
	for _, parallelism := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		// The third trace is known by its identity only, and generating its
		// events — which the grid's third simulation is the first to need —
		// cancels the context.
		third := trs[2]
		grid := []*trace.Trace{trs[0], trs[1], trace.Deferred(third.Name, third.Identity(), func() (*trace.Trace, error) {
			cancel()
			return third, nil
		})}
		c := New()
		got, err := c.RunBatch(ctx, cfgs, grid, parallelism, nil)
		cancel()
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("parallelism %d: %d results, error %v; want context.Canceled", parallelism, len(got), err)
		}
		// The third simulation cancels; besides it only what was already in
		// flight may still run.
		if st := c.Stats(); st.Misses < 3 || st.Misses > uint64(3+parallelism-1) {
			t.Errorf("parallelism %d: %d simulations of %d ran after cancelling during the third", parallelism, st.Misses, len(cfgs)*len(trs))
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New()
	if _, err := c.RunBatch(ctx, cfgs, trs, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("grid under a cancelled context: %v", err)
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Errorf("grid under a cancelled context simulated %d pairs", st.Misses)
	}
}
