package tracememo

import (
	"runtime"
	"testing"

	"racesim/internal/ubench"
)

// TestSizeMatchesRetainedHeap holds the budget's estimate to what a trace
// really keeps alive once everything that uses it has run: a recorded
// micro-benchmark with both decoder variants decoded. An estimate that
// drifts from the heap evicts too early or lets the memo outgrow its
// budget.
func TestSizeMatchesRetainedHeap(t *testing.T) {
	b, ok := ubench.ByName("MIP")
	if !ok {
		t.Fatal("missing MIP")
	}
	// Two collections: the first moves the trace builder's pooled chunks
	// to the pool's victim cache, the second frees them.
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	tr, err := b.Trace(ubench.Options{Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	for _, depBug := range []bool{false, true} {
		if d := tr.Decoded(depBug); d.Err != nil {
			t.Fatal(d.Err)
		}
	}
	retained := heap() - before
	runtime.KeepAlive(tr)
	est := Size(tr)
	t.Logf("%d events: %d bytes retained (%.1f B/event), estimate %d", tr.Len(), retained, float64(retained)/float64(tr.Len()), est)
	if lo, hi := 0.75*float64(retained), 1.25*float64(retained); float64(est) < lo || float64(est) > hi {
		t.Errorf("Size = %d bytes for a trace that retains %d; want within 25%%", est, retained)
	}
}
