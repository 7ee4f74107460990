//go:build !race

package validate

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/simcache"
)

// The race detector makes sync.Pool drop a share of what is put into it,
// so the steady state this file asserts does not exist under -race.

// TestWarmCostBatchAllocations guards the tuner's hot path: a race scores
// every pair through CostBatch, so a warm single-candidate call — overlay,
// one cache hit, one score — may allocate no more than it does now.
func TestWarmCostBatchAllocations(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	e := &Evaluator{Base: sim.PublicA53(), Ms: measurements(t, p.A53)[:1], Cache: simcache.New()}
	as := []irace.Assignment{sim.Extract(sim.PublicA53())}
	e.CostBatch(as, 0)
	if allocs := testing.AllocsPerRun(100, func() { e.CostBatch(as, 0) }); allocs > 6 {
		t.Errorf("a warm single-candidate CostBatch allocates %.1f objects, want at most 6", allocs)
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRowsOnlyGridAllocations guards the warm re-run: a grid a caller
// scores without keeping its results (perturb, ErrorsWith, expt) decodes
// its hits, answered here from a snapshot, into recycled storage, so what
// it allocates — the grid's trace list and its rows — does not grow in
// number with the grid.
func TestWarmRowsOnlyGridAllocations(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(t, p.A53)[:8]
	cfg := sim.PublicA53()
	cold := simcache.New()
	if _, err := ErrorsWith(cfg, ms, cold, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := cold.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	warm := simcache.New()
	if _, _, err := warm.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	allocs := map[int]float64{}
	for _, n := range []int{1, 4, 32} {
		cfgs := slices.Repeat([]sim.Config{cfg}, n)
		score := func() {
			if _, err := Score(context.Background(), cfgs, ms, warm, 2, nil); err != nil {
				t.Fatal(err)
			}
		}
		score()
		allocs[n] = testing.AllocsPerRun(50, score)
	}
	if allocs[1] > 2 || allocs[4] != allocs[1] || allocs[32] != allocs[1] {
		t.Errorf("a warm rows-only grid of 1, 4 and 32 configurations x %d measurements allocates %v, %v and %v objects; want the same, at most 2",
			len(ms), allocs[1], allocs[4], allocs[32])
	}
	if st := warm.Stats(); st.Misses != 0 {
		t.Fatalf("the warm grids simulated: %+v", st)
	}
}
