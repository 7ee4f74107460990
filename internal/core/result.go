package core

import (
	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/isa"
)

// Result is the outcome of running a trace through a timing model.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Branch       branch.Stats
	Mem          cache.HierarchyStats
	ClassCounts  [isa.NumClasses]uint64

	// Stall breakdown (approximate attribution, in cycles).
	StallFrontEnd uint64 // branch redirects + I-cache
	StallData     uint64 // waiting on operands (incl. load misses)
	StallStruct   uint64 // functional-unit and queue contention
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Epoch numbers what the timing models compute. Every simulation-cache key
// starts with it (sim.Config.Fingerprint): bump it in any change that moves
// a Result, so no cache snapshot written before the change answers for it.
// internal/sim's results golden fails until a change that moves it does.
const Epoch = 1
