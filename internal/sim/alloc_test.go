//go:build !race

package sim

import "testing"

// The race detector makes sync.Pool drop a share of what is put into it,
// so the steady state this file asserts does not exist under -race.

// TestRunDecodedSteadyStateAllocations guards the per-simulation fixed
// cost: once the free list holds a lane that has served the geometry, a
// replay allocates a handful of small objects (the result and config
// slices), not a model.
func TestRunDecodedSteadyStateAllocations(t *testing.T) {
	tr := shortTraces(t)[0]
	for _, cfg := range []Config{PublicA53(), PublicA72()} {
		d := tr.Decoded(cfg.DecoderDepBug)
		run := func() {
			if _, err := cfg.RunDecoded(d); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: builds the lane and compiles the behavior table
		if allocs := testing.AllocsPerRun(50, run); allocs > 8 {
			t.Errorf("%s: steady-state RunDecoded allocates %.0f objects, want <= 8", cfg.Name, allocs)
		}
	}
}
