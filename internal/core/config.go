// Package core implements the back-end timing models of racesim: an
// in-order core shaped after the Cortex-A53 and an out-of-order core shaped
// after the Cortex-A72, both driven by instruction traces. The models
// follow Sniper's philosophy — detailed cycle accounting over the dynamic
// instruction stream without simulating every structure every cycle — and
// include the contention model the paper adds for ARM cores: functional
// -unit pipes with issue rules, latencies and initiation intervals.
package core

import (
	"cmp"
	"fmt"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/isa"
)

// LatencyConfig gives the execution latency in cycles for each instruction
// class, plus initiation intervals for the non-pipelined units.
type LatencyConfig struct {
	IntALU int
	IntMul int
	IntDiv int
	FPAdd  int
	FPMul  int
	FPDiv  int
	FPCvt  int
	SIMD   int

	// Initiation intervals: cycles between successive issues to the same
	// unit (1 = fully pipelined). Divide units are typically unpipelined.
	IntDivII int
	FPDivII  int
}

// Validate reports configuration errors.
func (c LatencyConfig) Validate() error {
	for _, v := range []struct {
		name string
		val  int
	}{
		{"IntALU", c.IntALU}, {"IntMul", c.IntMul}, {"IntDiv", c.IntDiv},
		{"FPAdd", c.FPAdd}, {"FPMul", c.FPMul}, {"FPDiv", c.FPDiv},
		{"FPCvt", c.FPCvt}, {"SIMD", c.SIMD},
		{"IntDivII", c.IntDivII}, {"FPDivII", c.FPDivII},
	} {
		if v.val <= 0 {
			return fmt.Errorf("core: latency %s = %d must be positive", v.name, v.val)
		}
	}
	return nil
}

// Latency returns the execution latency for a class (memory classes return
// 0: their latency comes from the hierarchy).
func (c LatencyConfig) Latency(cls isa.Class) int {
	switch cls {
	case isa.ClassIntAlu:
		return c.IntALU
	case isa.ClassIntMul:
		return c.IntMul
	case isa.ClassIntDiv:
		return c.IntDiv
	case isa.ClassFPAdd:
		return c.FPAdd
	case isa.ClassFPMul:
		return c.FPMul
	case isa.ClassFPDiv:
		return c.FPDiv
	case isa.ClassFPCvt:
		return c.FPCvt
	case isa.ClassSIMD:
		return c.SIMD
	case isa.ClassBranch, isa.ClassBranchInd, isa.ClassCall, isa.ClassRet:
		return 1
	default:
		return 1
	}
}

// PipesConfig sets how many execution pipes serve each class group — the
// contention model's structural resources.
type PipesConfig struct {
	IntALU int // simple integer pipes
	IntMul int // multiply pipes
	IntDiv int // divide units
	FP     int // FP/SIMD pipes (add/mul/cvt/simd)
	FPDiv  int // FP divide units
	Load   int // load ports
	Store  int // store ports
	Branch int // branch resolution pipes
}

// maxPipes bounds the pipes of one class group.
const maxPipes = 8

// Validate reports configuration errors.
func (c PipesConfig) Validate() error {
	for _, v := range []struct {
		name string
		val  int
	}{
		{"IntALU", c.IntALU}, {"IntMul", c.IntMul}, {"IntDiv", c.IntDiv},
		{"FP", c.FP}, {"FPDiv", c.FPDiv},
		{"Load", c.Load}, {"Store", c.Store}, {"Branch", c.Branch},
	} {
		if v.val <= 0 || v.val > maxPipes {
			return fmt.Errorf("core: pipes %s = %d out of [1,%d]", v.name, v.val, maxPipes)
		}
	}
	return nil
}

// FrontEndConfig describes fetch and branch-redirect behaviour.
type FrontEndConfig struct {
	// MispredictPenalty is the full pipeline restart cost in cycles
	// (roughly the front-end depth).
	MispredictPenalty int
	// BTBMissPenalty is the shorter refetch bubble when direction was
	// right but the target was not in the BTB.
	BTBMissPenalty int
	// FetchWidth is instructions fetched per cycle (bounds issue).
	FetchWidth int
}

// Validate reports configuration errors.
func (c FrontEndConfig) Validate() error {
	if c.MispredictPenalty < 1 || c.MispredictPenalty > 64 {
		return fmt.Errorf("core: MispredictPenalty = %d out of [1,64]", c.MispredictPenalty)
	}
	if c.BTBMissPenalty < 0 || c.BTBMissPenalty > 32 {
		return fmt.Errorf("core: BTBMissPenalty = %d out of [0,32]", c.BTBMissPenalty)
	}
	if c.FetchWidth < 1 || c.FetchWidth > 16 {
		return fmt.Errorf("core: FetchWidth = %d out of [1,16]", c.FetchWidth)
	}
	return nil
}

// Kind selects the back-end timing model.
type Kind string

// Core kinds.
const (
	InOrder    Kind = "inorder"
	OutOfOrder Kind = "ooo"
)

// Config fully describes a simulated core and its memory subsystem. One
// flat struct covers both kinds: each model reads its own back-end fields
// and the shared rest. The field order and JSON tags are the config file
// format and feed every simulation-cache key (sim.Config.Fingerprint).
type Config struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`

	// In-order parameters.
	Width              int  `json:"width"`                 // issue width (the A53 is dual-issue)
	DualIssueLoadStore bool `json:"dual_issue_load_store"` // a memory op may pair with an ALU op
	MaxMemPerCycle     int  `json:"max_mem_per_cycle"`     // loads+stores issued per cycle
	MaxBranchPerCycle  int  `json:"max_branch_per_cycle"`  // branches issued per cycle
	StoreBufferEntries int  `json:"store_buffer_entries"`  // a full store buffer stalls stores

	// Out-of-order parameters.
	DispatchWidth int `json:"dispatch_width"` // renamed/dispatched per cycle (the A72 is 3-wide)
	RetireWidth   int `json:"retire_width"`
	ROBEntries    int `json:"rob_entries"`
	IQEntries     int `json:"iq_entries"` // unified issue queue: dispatch stalls when it is full
	LQEntries     int `json:"lq_entries"`
	SQEntries     int `json:"sq_entries"`

	// Shared.
	MSHRs    int                   `json:"mshrs"` // outstanding data-cache misses (memory-level parallelism)
	Lat      LatencyConfig         `json:"latencies"`
	Pipes    PipesConfig           `json:"pipes"`
	FrontEnd FrontEndConfig        `json:"front_end"`
	Branch   branch.Config         `json:"branch"`
	Mem      cache.HierarchyConfig `json:"mem"`

	// DecoderDepBug reproduces the decoder-library dependency bug on the
	// timing path (Sec. IV-B).
	DecoderDepBug bool `json:"decoder_dep_bug"`
}

// Validate reports configuration errors: the kind's own limits first,
// then the parts both kinds share, each in order.
func (c Config) Validate() error {
	var kindErr error
	switch c.Kind {
	case InOrder:
		switch {
		case c.Width < 1 || c.Width > 4:
			kindErr = fmt.Errorf("core: in-order width = %d out of [1,4]", c.Width)
		case c.MaxMemPerCycle < 1 || c.MaxMemPerCycle > c.Width:
			kindErr = fmt.Errorf("core: MaxMemPerCycle = %d out of [1,width]", c.MaxMemPerCycle)
		case c.MaxBranchPerCycle < 1 || c.MaxBranchPerCycle > c.Width:
			kindErr = fmt.Errorf("core: MaxBranchPerCycle = %d out of [1,width]", c.MaxBranchPerCycle)
		default:
			kindErr = inRange("StoreBufferEntries", c.StoreBufferEntries, 1, 64)
		}
	case OutOfOrder:
		kindErr = cmp.Or(
			inRange("DispatchWidth", c.DispatchWidth, 1, 8),
			inRange("RetireWidth", c.RetireWidth, 1, 8),
			inRange("ROBEntries", c.ROBEntries, 8, 512),
			inRange("IQEntries", c.IQEntries, 4, 256),
			inRange("LQEntries", c.LQEntries, 4, 128),
			inRange("SQEntries", c.SQEntries, 4, 128),
		)
	default:
		return fmt.Errorf("sim: unknown core kind %q", c.Kind)
	}
	return cmp.Or(kindErr, inRange("MSHRs", c.MSHRs, 1, 32),
		c.Lat.Validate(), c.Pipes.Validate(), c.FrontEnd.Validate(), c.Branch.Validate(), c.Mem.Validate())
}

// inRange is Validate's error for a field outside [lo,hi], or nil.
func inRange(name string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("core: %s = %d out of [%d,%d]", name, v, lo, hi)
	}
	return nil
}
