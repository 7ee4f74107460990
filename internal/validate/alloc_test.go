//go:build !race

package validate

import (
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
