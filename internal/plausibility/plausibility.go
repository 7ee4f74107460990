// Package plausibility asserts physical bounds on simulator
// configurations and results: a simulated core, whatever its parameters,
// cannot retire more instructions per cycle than its issue width, see
// more cache misses than accesses, or take negative time to do anything.
//
// The checks run two ways. The test suite sweeps every registered
// core/board kind through them, so a new scenario dimension (a prefetch
// variant, a DVFS point, an imported trace) cannot silently go
// nonphysical; and validate's report collection runs them on every
// simulated benchmark, so a ValidationReport carries any violation next
// to the accuracy statistics it would otherwise quietly distort.
package plausibility

import (
	"fmt"

	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/sim"
)

// Violation is one broken physical invariant.
type Violation struct {
	// Invariant is the short stable name of the rule (e.g. "ipc<=width").
	Invariant string
	// Detail states the observed values that break it.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

func violation(out []Violation, invariant, format string, args ...any) []Violation {
	return append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// IssueWidth returns the configuration's sustained-IPC bound: the issue
// width of an in-order core, the narrower of dispatch and retire width
// of an out-of-order core (0 when the configuration declares neither).
func IssueWidth(cfg sim.Config) int {
	switch cfg.Kind {
	case core.InOrder:
		return cfg.Width
	case core.OutOfOrder:
		w := cfg.DispatchWidth
		if cfg.RetireWidth > 0 && (w <= 0 || cfg.RetireWidth < w) {
			w = cfg.RetireWidth
		}
		return w
	}
	return 0
}

// CheckConfig verifies the static physical bounds of a configuration:
// no negative latency anywhere in the machine. Config.Validate already
// rejects most degenerate values; this is the belt-and-braces sweep a
// future scenario dimension cannot dodge by adding a field Validate
// forgot.
func CheckConfig(cfg sim.Config) []Violation {
	var out []Violation
	// In report order.
	for _, l := range []struct {
		name   string
		cycles int
	}{
		{"lat.int_alu", cfg.Lat.IntALU}, {"lat.int_mul", cfg.Lat.IntMul},
		{"lat.int_div", cfg.Lat.IntDiv}, {"lat.fp_add", cfg.Lat.FPAdd},
		{"lat.fp_mul", cfg.Lat.FPMul}, {"lat.fp_div", cfg.Lat.FPDiv},
		{"lat.fp_cvt", cfg.Lat.FPCvt}, {"lat.simd", cfg.Lat.SIMD},
		{"lat.int_div_ii", cfg.Lat.IntDivII}, {"lat.fp_div_ii", cfg.Lat.FPDivII},
		{"l1i.hit", cfg.Mem.L1I.HitLatency},
		{"l1d.hit", cfg.Mem.L1D.HitLatency},
		{"l2.hit", cfg.Mem.L2.HitLatency},
		{"dram.latency", cfg.Mem.DRAM.LatencyCycles},
		{"dram.burst", cfg.Mem.DRAM.BurstCycles},
		{"tlb.miss", cfg.Mem.TLBMissLatency},
		{"frontend.mispredict", cfg.FrontEnd.MispredictPenalty},
		{"frontend.btb_miss", cfg.FrontEnd.BTBMissPenalty},
		{"mem.zero_fill", cfg.Mem.ZeroFillLatency},
	} {
		if l.cycles < 0 {
			out = violation(out, "latency>=0", "%s = %d cycles", l.name, l.cycles)
		}
	}
	if w := IssueWidth(cfg); w <= 0 {
		out = violation(out, "width>0", "core kind %s declares issue width %d", cfg.Kind, w)
	}
	return out
}

// CheckResult verifies a simulation result against the physical bounds
// of its configuration (static bounds are CheckConfig's job, kept
// separate so per-benchmark sweeps do not repeat them):
//
//   - cycles > 0 whenever instructions retired, and CPI >= 1/width
//     (equivalently IPC <= issue width): no core finishes faster than
//     its narrowest pipeline stage allows;
//   - per cache level, hits + misses account for at most the accesses
//     seen, so miss rates stay in [0, 1];
//   - branch mispredictions cannot exceed branches seen.
func CheckResult(cfg sim.Config, res core.Result) []Violation {
	var out []Violation
	if res.Instructions == 0 {
		return out
	}
	if res.Cycles == 0 {
		return violation(out, "cycles>0", "%d instructions retired in 0 cycles", res.Instructions)
	}
	if w := IssueWidth(cfg); w > 0 {
		ipc := res.IPC()
		if ipc > float64(w) {
			out = violation(out, "ipc<=width", "IPC %.3f exceeds issue width %d (CPI %.3f < %.3f)",
				ipc, w, res.CPI(), 1/float64(w))
		}
	}
	for _, lvl := range []struct {
		name string
		s    cache.Stats
	}{{"l1i", res.Mem.L1I}, {"l1d", res.Mem.L1D}, {"l2", res.Mem.L2}} {
		if lvl.s.Hits+lvl.s.Misses > lvl.s.Accesses {
			out = violation(out, "misses<=accesses", "%s: %d hits + %d misses > %d accesses",
				lvl.name, lvl.s.Hits, lvl.s.Misses, lvl.s.Accesses)
		}
	}
	if res.Branch.Mispredicts() > res.Branch.Branches+res.Branch.Indirect+res.Branch.Returns {
		out = violation(out, "mispredicts<=branches", "%d mispredicts > %d branches",
			res.Branch.Mispredicts(), res.Branch.Branches+res.Branch.Indirect+res.Branch.Returns)
	}
	return out
}
