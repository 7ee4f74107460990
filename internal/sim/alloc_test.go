//go:build !race

package sim_test

import (
	"runtime"
	"testing"

	"racesim/internal/sim"
)

// The race detector makes sync.Pool drop a share of what is put into it,
// so the steady state this file asserts does not exist under -race.

// TestRunDecodedSteadyStateAllocations guards the per-simulation fixed
// cost: once the free list holds a lane that has served the geometry, a
// replay allocates a handful of small objects (the result and config
// slices), not a model. Repeating one configuration on one decode, the
// measured runs are the third sighting on: they replay the decode's tape,
// and playing a tape allocates nothing either.
func TestRunDecodedSteadyStateAllocations(t *testing.T) {
	tr := shortTraces(t)[0]
	for _, cfg := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
		d := tr.Decoded(cfg.DecoderDepBug)
		run := func() {
			if _, err := cfg.RunDecoded(d); err != nil {
				t.Fatal(err)
			}
		}
		before := sim.TapeStats(d)
		run() // warm-up: builds the lane and compiles the behavior table
		run() // second sighting: records the tape
		if allocs := testing.AllocsPerRun(50, run); allocs > 8 {
			t.Errorf("%s: steady-state RunDecoded allocates %.0f objects, want <= 8", cfg.Name, allocs)
		}
		if st := sim.TapeStats(d); st.Recorded != before.Recorded+1 || st.Replayed < before.Replayed+50 {
			t.Errorf("%s: memo went from %+v to %+v: the measured runs were not tape replays", cfg.Name, before, st)
		}
	}
}

// TestNeverRepeatingConfigsRecordNothing is the other side of the
// second-sighting rule, a tuning race's side: two thousand functional
// memory configurations on one decode, none seen twice. Every one runs
// live; none records, so no tape is allocated for nobody to read — the
// replays stay within the steady-state allocation budget and the heap ends
// where it started.
func TestNeverRepeatingConfigsRecordNothing(t *testing.T) {
	tr := shortTraces(t)[3] // a Table II workload: TLB pressure, long tapes
	base := sim.PublicA72()
	d := tr.Decoded(base.DecoderDepBug)
	n := 0
	run := func() {
		cfg := base
		cfg.Mem.DTLBEntries = 16 + n
		n++
		if _, err := cfg.RunDecoded(d); err != nil {
			t.Fatal(err)
		}
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run() // builds the lane and compiles the behavior table
	before := live()
	if allocs := testing.AllocsPerRun(2000, run); allocs > 8 {
		t.Errorf("a never-repeated configuration allocates %.0f objects per replay, want <= 8", allocs)
	}
	if after := live(); after > before+256<<10 {
		t.Errorf("live heap grew from %d KB to %d KB over %d never-repeated configurations", before>>10, after>>10, n)
	}
	if st := sim.TapeStats(d); st.Live != uint64(n) || st.Recorded != 0 || st.Replayed != 0 || st.Tapes != 0 {
		t.Errorf("memo stats %+v after %d distinct configurations: want all live, nothing recorded", st, n)
	}
}

// TestApplySteadyStateAllocations: the parameter table (some seventy
// closures and value slices per core kind) is built once and shared, so an
// Apply — one per (candidate, instance) in a race, one per trial in the
// perturbation search — allocates nothing for it once it exists: the one
// object left is the configuration being built, which the setters reach
// through a pointer.
func TestApplySteadyStateAllocations(t *testing.T) {
	for _, base := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
		a := sim.Extract(base) // also builds the table
		apply := func() {
			if _, err := sim.Apply(base, a); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, apply); allocs > 1 {
			t.Errorf("%s: steady-state Apply allocates %.0f objects, want 1 (is the parameter table rebuilt per call?)", base.Name, allocs)
		}
	}
}
