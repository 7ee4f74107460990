package racesim

import (
	"reflect"
	"sync"
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
)

// parityTrace returns an emulated micro-benchmark trace for the decode
// sharing tests below. The replay-parity tests proper compare the product
// with a reference simulator that lives in internal/sim's tests.
func parityTrace(t testing.TB) *trace.Trace {
	t.Helper()
	b, ok := ubench.ByName("MD")
	if !ok {
		t.Fatal("missing micro-benchmark MD")
	}
	tr, err := b.Trace(ubench.Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDecodedSharedAcrossWorkers replays one shared Decoded concurrently
// from many workers under different configurations — the runner-pool
// sharing pattern — and checks every worker gets the sequential answer.
// Run with -race to verify the immutable-sharing contract.
func TestDecodedSharedAcrossWorkers(t *testing.T) {
	tr := parityTrace(t)
	d := tr.Decoded(false)
	configs := make([]sim.Config, 16)
	for i := range configs {
		var cfg sim.Config
		if i%2 == 0 {
			cfg = sim.PublicA53()
			cfg.Width = 1 + i%2
			cfg.Mem.L1D.HitLatency = 2 + i/2%3
		} else {
			cfg = sim.PublicA72()
			cfg.ROBEntries = 64 + 16*(i/2%4)
		}
		cfg.DecoderDepBug = false // all workers share the one correct-decode variant
		configs[i] = cfg
	}
	want := make([]core.Result, len(configs))
	for i, cfg := range configs {
		res, err := cfg.RunDecoded(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	got := make([]core.Result, len(configs))
	errs := make([]error, len(configs))
	for i := range configs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = configs[i].RunDecoded(d)
		}(i)
	}
	wg.Wait()
	for i := range configs {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("worker %d: concurrent result differs from sequential", i)
		}
	}
}

// TestRunRejectsMismatchedDecodedVariant guards the DepBug contract: a
// decoded trace built with one decoder variant cannot silently replay on a
// model configured with the other.
func TestRunRejectsMismatchedDecodedVariant(t *testing.T) {
	tr := parityTrace(t)
	cfg := sim.PublicA53()
	cfg.DecoderDepBug = true
	if _, err := cfg.RunDecoded(tr.Decoded(false)); err == nil {
		t.Fatal("want variant-mismatch error")
	}
}
