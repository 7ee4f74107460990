package plausibility

import (
	"testing"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/prefetch"
	"racesim/internal/sim"
	"racesim/internal/ubench"
)

// registeredConfigs is every core/board configuration the repo ships:
// the two public presets and the two hidden reference-board truths. A
// new kind added here gets the physical-bound sweep for free.
func registeredConfigs(t *testing.T) map[string]sim.Config {
	t.Helper()
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sim.Config{
		"public-a53": sim.PublicA53(),
		"public-a72": sim.PublicA72(),
		"true-a53":   p.A53.TrueConfig(),
		"true-a72":   p.A72.TrueConfig(),
	}
}

func TestRegisteredConfigsArePhysical(t *testing.T) {
	for name, cfg := range registeredConfigs(t) {
		if vs := CheckConfig(cfg); len(vs) != 0 {
			t.Errorf("%s: config violates physical bounds: %v", name, vs)
		}
		if w := IssueWidth(cfg); w <= 0 {
			t.Errorf("%s: issue width %d", name, w)
		}
	}
}

// TestSimulatedSuiteIsPhysical runs the whole Table I suite through
// every registered configuration and asserts no benchmark produces a
// nonphysical result: IPC bounded by issue width, miss counts bounded
// by accesses, mispredicts bounded by branches.
func TestSimulatedSuiteIsPhysical(t *testing.T) {
	for name, cfg := range registeredConfigs(t) {
		for _, b := range ubench.Suite() {
			tr, err := b.Trace(ubench.Options{Scale: 0.002})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, b.Name, err)
			}
			res, err := cfg.Run(tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, b.Name, err)
			}
			if vs := CheckResult(cfg, res); len(vs) != 0 {
				t.Errorf("%s/%s: nonphysical result: %v", name, b.Name, vs)
			}
		}
	}
}

// TestL1DMissesMonotonicWithCacheSize grows the L1D at a fixed set
// count (so each larger cache strictly contains the smaller one's
// content under LRU — the inclusion property) with prefetching off, and
// asserts the miss count never increases with size.
func TestL1DMissesMonotonicWithCacheSize(t *testing.T) {
	b, ok := ubench.ByName("MD")
	if !ok {
		t.Fatal("bench MD not registered")
	}
	tr, err := b.Trace(ubench.Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// 64B lines: (16KB, 2-way), (32KB, 4-way), (64KB, 8-way) all index
	// into 128 sets.
	geoms := []struct{ sizeKB, assoc int }{{16, 2}, {32, 4}, {64, 8}}
	var prev uint64
	for i, g := range geoms {
		cfg := sim.PublicA53()
		cfg.Mem.L1D.SizeKB = g.sizeKB
		cfg.Mem.L1D.Assoc = g.assoc
		cfg.Mem.L1D.Repl = cache.ReplLRU
		cfg.Mem.L1D.Prefetch = prefetch.Config{Kind: prefetch.KindNone, Degree: 1, Distance: 1, TableEntries: 16, GHBEntries: 16}
		res, err := cfg.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		misses := res.Mem.L1D.Misses
		t.Logf("%dKB/%d-way: %d L1D misses", g.sizeKB, g.assoc, misses)
		if i > 0 && misses > prev {
			t.Errorf("L1D misses increased with cache size: %d (%dKB) > %d (%dKB)",
				misses, g.sizeKB, prev, geoms[i-1].sizeKB)
		}
		prev = misses
	}
}

func TestCheckConfigFlagsInjectedViolations(t *testing.T) {
	cfg := sim.PublicA53()
	cfg.Lat.FPDiv = -1
	cfg.Mem.L1D.HitLatency = -3
	vs := CheckConfig(cfg)
	if len(vs) != 2 {
		t.Fatalf("%d violations, want 2: %v", len(vs), vs)
	}
	// Deterministic order: the fixed sweep lists lat.fp_div before l1d.hit.
	if vs[0].Invariant != "latency>=0" || vs[0].Detail != "lat.fp_div = -1 cycles" {
		t.Errorf("violation 0 = %v", vs[0])
	}
	if vs[1].Detail != "l1d.hit = -3 cycles" {
		t.Errorf("violation 1 = %v", vs[1])
	}

	cfg = sim.PublicA53()
	cfg.Width = 0
	cfg.Kind = core.InOrder
	if vs := CheckConfig(cfg); len(vs) != 1 || vs[0].Invariant != "width>0" {
		t.Errorf("zero-width core: %v", vs)
	}
}

func TestCheckResultFlagsInjectedViolations(t *testing.T) {
	cfg := sim.PublicA53() // in-order, width 2
	base := core.Result{Instructions: 1000, Cycles: 600}

	if vs := CheckResult(cfg, base); len(vs) != 0 {
		t.Errorf("IPC 1.67 on a dual-issue core flagged: %v", vs)
	}

	fast := base
	fast.Cycles = 400 // IPC 2.5 > width 2
	if vs := CheckResult(cfg, fast); len(vs) != 1 || vs[0].Invariant != "ipc<=width" {
		t.Errorf("superscalar-impossible IPC: %v", vs)
	}

	zero := base
	zero.Cycles = 0
	if vs := CheckResult(cfg, zero); len(vs) != 1 || vs[0].Invariant != "cycles>0" {
		t.Errorf("zero cycles: %v", vs)
	}

	leaky := base
	leaky.Mem.L1D = cache.Stats{Accesses: 100, Hits: 80, Misses: 30}
	if vs := CheckResult(cfg, leaky); len(vs) != 1 || vs[0].Invariant != "misses<=accesses" {
		t.Errorf("hits+misses > accesses: %v", vs)
	}

	wild := base
	wild.Branch = branch.Stats{Branches: 10, DirectionMiss: 11}
	if vs := CheckResult(cfg, wild); len(vs) != 1 || vs[0].Invariant != "mispredicts<=branches" {
		t.Errorf("mispredicts > branches: %v", vs)
	}

	// An empty result (no instructions) is vacuously physical.
	if vs := CheckResult(cfg, core.Result{}); len(vs) != 0 {
		t.Errorf("empty result flagged: %v", vs)
	}
}

// TestCheckStringsStable pins the rendered form of a violation, which
// validate.CollectSamples embeds in a ValidationReport.
func TestCheckStringsStable(t *testing.T) {
	cfg := sim.PublicA53()
	vs := CheckResult(cfg, core.Result{Instructions: 1000, Cycles: 400})
	if len(vs) != 1 {
		t.Fatalf("%d violations, want 1", len(vs))
	}
	want := "ipc<=width: IPC 2.500 exceeds issue width 2 (CPI 0.400 < 0.500)"
	if got := vs[0].String(); got != want {
		t.Errorf("rendered violation %q, want %q", got, want)
	}
	if vs := CheckResult(cfg, core.Result{Instructions: 1000, Cycles: 600}); len(vs) != 0 {
		t.Errorf("clean result has violations %v", vs)
	}
}
