package sim

import (
	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/dram"
	"racesim/internal/prefetch"
)

// The public presets encode steps 1–3 of the validation methodology: every
// parameter that the technical reference manuals disclose (cache geometry,
// issue width, write policies) is set accordingly; everything else is a
// best-effort guess that the tuner is expected to correct. The deliberate
// guesses that turn out wrong against the reference boards (see
// internal/hw) are what the paper calls specification errors.

func l1i(sizeKB, assoc int) cache.Config {
	return cache.Config{
		Name: "l1i", SizeKB: sizeKB, Assoc: assoc, LineSize: 64,
		HitLatency: 1, Hash: cache.HashMask, Repl: cache.ReplLRU,
		MSHRs: 2, Ports: 1, WriteBack: false, WriteAllocate: false,
		Prefetch: prefetch.Config{Kind: prefetch.KindNextLine, Degree: 1, Distance: 1, TableEntries: 16, GHBEntries: 16},
	}
}

func l1d() cache.Config {
	return cache.Config{
		Name: "l1d", SizeKB: 32, Assoc: 4, LineSize: 64,
		HitLatency: 3, Hash: cache.HashMask, Repl: cache.ReplLRU,
		MSHRs: 2, Ports: 1, WriteBack: true, WriteAllocate: true,
		Prefetch: prefetch.DefaultConfig(),
	}
}

func l2(sizeKB int) cache.Config {
	return cache.Config{
		Name: "l2", SizeKB: sizeKB, Assoc: 16, LineSize: 64,
		HitLatency: 15, Hash: cache.HashMask, Repl: cache.ReplLRU,
		MSHRs: 8, Ports: 1, WriteBack: true, WriteAllocate: true,
		Prefetch: prefetch.DefaultConfig(),
	}
}

// PublicA53 returns the untuned in-order model built from public
// information plus best guesses (methodology steps 1–3).
func PublicA53() Config {
	return Config{
		Name: "public-a53",
		Kind: core.InOrder,

		Width:              2, // disclosed: dual-issue
		DualIssueLoadStore: true,
		MaxMemPerCycle:     1,
		MaxBranchPerCycle:  1,
		StoreBufferEntries: 4,

		// Out-of-order fields are irrelevant for the in-order model but
		// kept valid so the config round-trips.
		DispatchWidth: 2, RetireWidth: 2, ROBEntries: 32, IQEntries: 16,
		LQEntries: 8, SQEntries: 8,

		MSHRs: 2,
		Lat: core.LatencyConfig{
			IntALU: 1, IntMul: 3, IntDiv: 8, FPAdd: 4, FPMul: 4, FPDiv: 10,
			FPCvt: 3, SIMD: 3,
			// Best guess: divides assumed fully pipelined — a plausible
			// but wrong assumption (imbalanced-pipeline hazard).
			IntDivII: 1, FPDivII: 1,
		},
		Pipes: core.PipesConfig{
			IntALU: 2, IntMul: 1, IntDiv: 1, FP: 1, FPDiv: 1, Load: 1, Store: 1, Branch: 1,
		},
		FrontEnd: core.FrontEndConfig{MispredictPenalty: 6, BTBMissPenalty: 1, FetchWidth: 2},
		Branch: branch.Config{
			Kind:            branch.KindBimodal,
			BimodalEntries:  1024,
			GShareEntries:   1024,
			HistoryBits:     6,
			ChooserEntries:  1024,
			BTBEntries:      128,
			BTBAssoc:        1,
			RASEntries:      4,
			IndirectEnabled: false, // abstraction gap: no indirect predictor yet
			IndirectEntries: 256,
			IndirectHistory: 4,
		},
		Mem: cache.HierarchyConfig{
			L1I:         l1i(32, 2), // disclosed geometry
			L1D:         l1d(),
			L2:          l2(512), // disclosed: 512 KB shared L2
			DRAM:        dram.Config{LatencyCycles: 140, BurstCycles: 4, QueueDepth: 16},
			ITLBEntries: 16, DTLBEntries: 16, TLBMissLatency: 30,
			PageBytes: 4096,
			// Abstraction gap: the zero-fill page optimization is not in
			// the public model at all.
			ZeroFillOpt: false, ZeroFillLatency: 48,
		},
		// The decoder library ships with the dependency-extraction bug;
		// the validation process discovers and fixes it (Sec. IV-B).
		DecoderDepBug: true,
	}
}

// PublicA72 returns the untuned out-of-order model built from public
// information plus best guesses.
func PublicA72() Config {
	return Config{
		Name: "public-a72",
		Kind: core.OutOfOrder,

		Width:              3,
		DualIssueLoadStore: true,
		MaxMemPerCycle:     2,
		MaxBranchPerCycle:  1,
		StoreBufferEntries: 8,

		DispatchWidth: 3, // disclosed: 3-wide dispatch
		RetireWidth:   3,
		ROBEntries:    64, // guess; real window believed deeper
		IQEntries:     16,
		LQEntries:     16,
		SQEntries:     16,

		MSHRs: 4,
		Lat: core.LatencyConfig{
			IntALU: 1, IntMul: 4, IntDiv: 8, FPAdd: 4, FPMul: 4, FPDiv: 10,
			FPCvt: 3, SIMD: 3,
			IntDivII: 1, FPDivII: 1, // same optimistic pipelining guess
		},
		Pipes: core.PipesConfig{
			IntALU: 2, IntMul: 1, IntDiv: 1, FP: 2, FPDiv: 1, Load: 1, Store: 1, Branch: 1,
		},
		FrontEnd: core.FrontEndConfig{MispredictPenalty: 10, BTBMissPenalty: 2, FetchWidth: 3},
		Branch: branch.Config{
			Kind:            branch.KindBimodal,
			BimodalEntries:  2048,
			GShareEntries:   2048,
			HistoryBits:     8,
			ChooserEntries:  2048,
			BTBEntries:      256,
			BTBAssoc:        2,
			RASEntries:      8,
			IndirectEnabled: false,
			IndirectEntries: 256,
			IndirectHistory: 4,
		},
		Mem: cache.HierarchyConfig{
			L1I:         l1i(48, 3), // disclosed: 48 KB L1I
			L1D:         l1d(),
			L2:          l2(1024), // disclosed: 1 MB shared L2
			DRAM:        dram.Config{LatencyCycles: 140, BurstCycles: 4, QueueDepth: 16},
			ITLBEntries: 32, DTLBEntries: 32, TLBMissLatency: 30,
			PageBytes:   4096,
			ZeroFillOpt: false, ZeroFillLatency: 48,
		},
		DecoderDepBug: true,
	}
}
