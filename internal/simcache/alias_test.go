package simcache

import (
	"context"
	"strconv"
	"testing"

	"racesim/internal/isa"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// fpDivMoves returns n configurations that differ from the A53 preset
// only in lat.fp_div, a latency no event of tr (which executes no FP
// divide) reads: one trace-read alias class.
func fpDivMoves(t *testing.T, n int) ([]sim.Config, *trace.Trace) {
	t.Helper()
	tr := testTrace(t, "MD")
	if c := sim.ProfileOf(tr.Decoded(false)).Classes[isa.ClassFPDiv]; c != 0 {
		t.Fatalf("MD executes %d FP divides", c)
	}
	var cfgs []sim.Config
	for i := 0; i < n; i++ {
		cfg := sim.PublicA53()
		cfg.Lat.FPDiv = 10 + i
		cfg.Name = "fpdiv-" + strconv.Itoa(cfg.Lat.FPDiv)
		cfgs = append(cfgs, cfg)
	}
	return cfgs, tr
}

// TestAliasClassSimulatedOnce: configurations a trace cannot tell apart
// are simulated once on it, whatever the parallelism; every other miss of
// the class is answered with that result, counted as a miss and as
// aliased, and stored under its own key. A second trace is its own class.
func TestAliasClassSimulatedOnce(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		cfgs, tr := fpDivMoves(t, 6)
		c := New()
		rs, err := c.RunBatch(context.Background(), cfgs, []*trace.Trace{tr}, parallelism, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cfgs[0].Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if r != want {
				t.Errorf("parallelism %d: %s differs from a direct simulation", parallelism, cfgs[i].Name)
			}
			if got, ok := c.Peek(Key(cfgs[i], tr)); !ok || got != want {
				t.Errorf("parallelism %d: %s is not stored under its own key", parallelism, cfgs[i].Name)
			}
		}
		st := c.Stats()
		if st.Misses != 6 || st.InOrderSims != 1 || st.Aliased != 5 || st.InOrderEvents != want.Instructions || st.Entries != 6 {
			t.Errorf("parallelism %d: stats %+v; want 6 misses, 1 simulation, 5 aliased, 6 entries", parallelism, st)
		}

		other := testTrace(t, "MC")
		if _, err := c.RunBatch(context.Background(), cfgs[:2], []*trace.Trace{other}, parallelism, nil); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.InOrderSims != 2 || st.Aliased != 6 {
			t.Errorf("parallelism %d: stats %+v after a second trace; want 2 simulations, 6 aliased", parallelism, st)
		}
	}
}

// TestAliasAfterEviction: a class whose simulated entry the memory budget
// evicted is simulated again by its next miss, not answered from nothing.
func TestAliasAfterEviction(t *testing.T) {
	cfgs, tr := fpDivMoves(t, 2)
	c := New()
	if _, err := c.Run(cfgs[0], tr); err != nil {
		t.Fatal(err)
	}
	c.SetMemoryBudget(1) // evicts everything
	got, err := c.Run(cfgs[1], tr)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cfgs[1].Run(tr)
	if got != want {
		t.Error("result after eviction differs from a direct simulation")
	}
	if st := c.Stats(); st.InOrderSims != 2 || st.Aliased != 0 {
		t.Errorf("stats %+v; want 2 simulations, none aliased", st)
	}
}

// TestInvalidConfigNeverAliased: a configuration that does not validate
// fails its own simulation even when its trace-canonical form equals that
// of a valid one already simulated.
func TestInvalidConfigNeverAliased(t *testing.T) {
	cfgs, tr := fpDivMoves(t, 1)
	c := New()
	if _, err := c.Run(cfgs[0], tr); err != nil {
		t.Fatal(err)
	}
	bad := cfgs[0]
	bad.Lat.FPDiv = -1 // unread on tr, and invalid
	if _, err := c.Run(bad, tr); err == nil {
		t.Error("an invalid configuration was answered by its alias class")
	}
}
