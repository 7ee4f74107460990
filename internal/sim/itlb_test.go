package sim_test

import (
	"math/bits"
	"slices"
	"strconv"
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// TestNoTraceOutgrowsTheITLB: every Table II workload at the experiments'
// size and every suite micro-benchmark at the default scale touches fewer
// distinct code pages than the smallest ITLB the tuner can pick. The ITLB
// is fully associative LRU, so on these traces it takes compulsory misses
// only and `tlb.itlb_entries` moves no result (docs/validation.md).
func TestNoTraceOutgrowsTheITLB(t *testing.T) {
	smallest := 0
	for _, kind := range []core.Kind{core.InOrder, core.OutOfOrder} {
		i := slices.IndexFunc(sim.Params(kind), func(p sim.ParamDef) bool { return p.Name == "tlb.itlb_entries" })
		if i < 0 {
			t.Fatalf("kind %v has no tlb.itlb_entries", kind)
		}
		for _, v := range sim.Params(kind)[i].Values {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			if smallest == 0 || n < smallest {
				smallest = n
			}
		}
	}
	if smallest != 16 {
		t.Errorf("smallest tlb.itlb_entries value %d, want 16", smallest)
	}
	pageBytes := sim.PublicA53().Mem.PageBytes
	if b := sim.PublicA72().Mem.PageBytes; b != pageBytes {
		t.Fatalf("the presets' pages differ: %d and %d bytes", pageBytes, b)
	}
	shift := bits.TrailingZeros(uint(pageBytes))

	var traces []*trace.Trace
	for _, p := range workload.Profiles() {
		tr, err := workload.Generate(p, workload.Options{Events: 60_000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	for _, b := range ubench.Suite() {
		tr, err := b.Trace(ubench.Options{Scale: ubench.DefaultScale})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	pages := make([]int, len(traces))
	for i, tr := range traces {
		seen := map[uint64]bool{}
		for _, pc := range tr.Decoded(false).PC {
			seen[pc>>shift] = true
		}
		if pages[i] = len(seen); pages[i] == 0 || pages[i] >= smallest {
			t.Errorf("%s touches %d code pages; the smallest ITLB holds %d", tr.Name, pages[i], smallest)
		}
	}
	t.Logf("code pages per trace, the workloads then the micro-benchmarks: %v", pages)
}
