//go:build !race

package trace

import (
	"runtime"
	"testing"
)

// The race detector makes sync.Pool drop a share of what is put into it,
// so the steady state this file asserts does not exist under -race.

// TestRecordSteadyStateAllocations: once the pool holds a builder that
// has served the length, a recording allocates its exact-size columns and
// a constant handful of small objects (the machine, the Trace, the
// closure) — not the several times its size that growing by doubling cost.
func TestRecordSteadyStateAllocations(t *testing.T) {
	// One P: a sync.Pool keeps what a P put back for that P, and a
	// goroutine that migrates between recordings starts over with a fresh
	// builder on the other one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// PC, MemAddr, Target, the word id and the taken bit.
	eventBytes := 3*8 + 4 + 1.0/8
	var objects []float64
	for _, n := range []int{chunkEvents / 2, 4 * chunkEvents} {
		prog := loopProgram(t, n)
		record := func() {
			if _, err := Record("loop", prog, 1<<30); err != nil {
				t.Fatal(err)
			}
		}
		record() // warm-up: grows the pooled builder to this length
		var before, after runtime.MemStats
		const runs = 10
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			record()
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if limit := 1.1 * eventBytes * float64(n); perRun > limit {
			t.Errorf("%d events: %.0f bytes allocated per recording, want <= %.0f (1.1 x %v column bytes x events)", n, perRun, limit, eventBytes)
		}
		objects = append(objects, testing.AllocsPerRun(runs, record))
	}
	if objects[0] != objects[1] || objects[0] > 16 {
		t.Errorf("objects per recording: %v for a short and a long trace, want one small constant", objects)
	}
}
