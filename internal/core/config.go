// Package core implements the back-end timing models of racesim: an
// in-order core shaped after the Cortex-A53 and an out-of-order core shaped
// after the Cortex-A72, both driven by instruction traces. The models
// follow Sniper's philosophy — detailed cycle accounting over the dynamic
// instruction stream without simulating every structure every cycle — and
// include the contention model the paper adds for ARM cores: functional
// -unit pipes with issue rules, latencies and initiation intervals.
package core

import (
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

// InOrderConfig configures the in-order core model.
type InOrderConfig struct {
	// Width is the issue width (the A53 is dual-issue).
	Width int
	// DualIssueLoadStore permits a memory op to pair with an ALU op in
	// the same cycle; when false, memory ops issue alone.
	DualIssueLoadStore bool
	// MaxMemPerCycle bounds loads+stores issued per cycle.
	MaxMemPerCycle int
	// MaxBranchPerCycle bounds branches issued per cycle.
	MaxBranchPerCycle int
	// MSHRs bounds outstanding data-cache misses (hit-under-miss depth).
	MSHRs int
	// StoreBufferEntries is the store buffer depth; a full buffer stalls
	// stores.
	StoreBufferEntries int

	Lat      LatencyConfig
	Pipes    PipesConfig
	FrontEnd FrontEndConfig
	Branch   branch.Config
	Mem      cache.HierarchyConfig

	// DecoderDepBug enables the reproduced decoder-library dependency bug
	// on the timing path (Sec. IV-B).
	DecoderDepBug bool
}

// Validate reports configuration errors.
func (c InOrderConfig) Validate() error {
	if c.Width < 1 || c.Width > 4 {
		return fmt.Errorf("core: in-order width = %d out of [1,4]", c.Width)
	}
	if c.MaxMemPerCycle < 1 || c.MaxMemPerCycle > c.Width {
		return fmt.Errorf("core: MaxMemPerCycle = %d out of [1,width]", c.MaxMemPerCycle)
	}
	if c.MaxBranchPerCycle < 1 || c.MaxBranchPerCycle > c.Width {
		return fmt.Errorf("core: MaxBranchPerCycle = %d out of [1,width]", c.MaxBranchPerCycle)
	}
	if c.MSHRs < 1 || c.MSHRs > 32 {
		return fmt.Errorf("core: MSHRs = %d out of [1,32]", c.MSHRs)
	}
	if c.StoreBufferEntries < 1 || c.StoreBufferEntries > 64 {
		return fmt.Errorf("core: StoreBufferEntries = %d out of [1,64]", c.StoreBufferEntries)
	}
	if err := c.Lat.Validate(); err != nil {
		return err
	}
	if err := c.Pipes.Validate(); err != nil {
		return err
	}
	if err := c.FrontEnd.Validate(); err != nil {
		return err
	}
	if err := c.Branch.Validate(); err != nil {
		return err
	}
	return c.Mem.Validate()
}

// OoOConfig configures the out-of-order core model.
type OoOConfig struct {
	// DispatchWidth is instructions renamed/dispatched per cycle (the A72
	// is 3-wide).
	DispatchWidth int
	// RetireWidth is instructions retired per cycle.
	RetireWidth int
	// ROBEntries is the reorder buffer capacity.
	ROBEntries int
	// IQEntries is the unified issue-queue capacity (dispatch stalls when
	// full of non-issued instructions).
	IQEntries int
	// LQEntries / SQEntries are load/store queue capacities.
	LQEntries int
	SQEntries int
	// MSHRs bounds overlapped data-cache misses (memory-level
	// parallelism).
	MSHRs int

	Lat      LatencyConfig
	Pipes    PipesConfig
	FrontEnd FrontEndConfig
	Branch   branch.Config
	Mem      cache.HierarchyConfig

	// DecoderDepBug enables the reproduced decoder dependency bug.
	DecoderDepBug bool
}

// Validate reports configuration errors.
func (c OoOConfig) Validate() error {
	if c.DispatchWidth < 1 || c.DispatchWidth > 8 {
		return fmt.Errorf("core: DispatchWidth = %d out of [1,8]", c.DispatchWidth)
	}
	if c.RetireWidth < 1 || c.RetireWidth > 8 {
		return fmt.Errorf("core: RetireWidth = %d out of [1,8]", c.RetireWidth)
	}
	if c.ROBEntries < 8 || c.ROBEntries > 512 {
		return fmt.Errorf("core: ROBEntries = %d out of [8,512]", c.ROBEntries)
	}
	if c.IQEntries < 4 || c.IQEntries > 256 {
		return fmt.Errorf("core: IQEntries = %d out of [4,256]", c.IQEntries)
	}
	if c.LQEntries < 4 || c.LQEntries > 128 {
		return fmt.Errorf("core: LQEntries = %d out of [4,128]", c.LQEntries)
	}
	if c.SQEntries < 4 || c.SQEntries > 128 {
		return fmt.Errorf("core: SQEntries = %d out of [4,128]", c.SQEntries)
	}
	if c.MSHRs < 1 || c.MSHRs > 32 {
		return fmt.Errorf("core: MSHRs = %d out of [1,32]", c.MSHRs)
	}
	if err := c.Lat.Validate(); err != nil {
		return err
	}
	if err := c.Pipes.Validate(); err != nil {
		return err
	}
	if err := c.FrontEnd.Validate(); err != nil {
		return err
	}
	if err := c.Branch.Validate(); err != nil {
		return err
	}
	return c.Mem.Validate()
}
