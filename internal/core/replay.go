// Decoded replay: one walk over a decoded trace's columns steps one
// recycled lane through the stepLane kernel. It is the only way a trace is
// replayed; the test-only reference simulator in internal/sim checks it.
package core

import (
	"fmt"

	"racesim/internal/isa"
	"racesim/internal/trace"
)

// ReplayInOrder replays one decoded trace under one in-order
// configuration. The lane comes from the process-wide free list and goes
// back to it before the call returns. behav must be the behavior table for
// d.Insts (CompileBehaviors), classes d's class histogram under it
// (ClassHistogram), tapes d's own tape memo (nil: the memory hierarchy is
// simulated live). cfg must be valid and share d's decoder variant.
func ReplayInOrder(cfg InOrderConfig, d *trace.Decoded, behav []Behavior, classes *[isa.NumClasses]uint64,
	tapes *TapeMemo) (Result, error) {
	if d.DepBug != cfg.DecoderDepBug {
		return Result{}, fmt.Errorf("core: decoded trace uses DepBug=%v, configuration %v", d.DepBug, cfg.DecoderDepBug)
	}
	ln := inOrderLanes.Get().(*inOrderLane)
	defer inOrderLanes.Put(ln)
	if err := ln.reset(cfg, tapes); err != nil {
		return Result{}, err
	}
	// The columns are cut to one length so the walk indexes them without
	// bounds checks, and the taken bits are shifted through a word at a
	// time instead of re-extracting a bit per event.
	ids := d.IDs
	pcs, mems, tgts, taken := d.PC[:len(ids)], d.MemAddr[:len(ids)], d.Target[:len(ids)], d.TakenBits
	var tkWord uint64
	for i := range ids {
		if i&63 == 0 {
			tkWord = taken[i>>6]
		}
		ln.stepLane(&behav[ids[i]], pcs[i], mems[i], tgts[i], tkWord&1 != 0)
		tkWord >>= 1
	}
	if d.Err != nil {
		return Result{}, fmt.Errorf("core: %w", d.Err)
	}
	if err := tapes.done(ln.hier); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	addCounts(&ln.res, uint64(len(ids)), classes)
	return ln.finish(), nil
}

// ReplayOoO replays one decoded trace under one out-of-order
// configuration; see ReplayInOrder.
func ReplayOoO(cfg OoOConfig, d *trace.Decoded, behav []Behavior, classes *[isa.NumClasses]uint64,
	tapes *TapeMemo) (Result, error) {
	if d.DepBug != cfg.DecoderDepBug {
		return Result{}, fmt.Errorf("core: decoded trace uses DepBug=%v, configuration %v", d.DepBug, cfg.DecoderDepBug)
	}
	ln := oooLanes.Get().(*oooLane)
	defer oooLanes.Put(ln)
	if err := ln.reset(cfg, tapes); err != nil {
		return Result{}, err
	}
	ids := d.IDs // columns and taken bits as in ReplayInOrder
	pcs, mems, tgts, taken := d.PC[:len(ids)], d.MemAddr[:len(ids)], d.Target[:len(ids)], d.TakenBits
	var tkWord uint64
	for i := range ids {
		if i&63 == 0 {
			tkWord = taken[i>>6]
		}
		ln.stepLane(&behav[ids[i]], pcs[i], mems[i], tgts[i], tkWord&1 != 0)
		tkWord >>= 1
	}
	if d.Err != nil {
		return Result{}, fmt.Errorf("core: %w", d.Err)
	}
	if err := tapes.done(ln.hier); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	addCounts(&ln.res, uint64(len(ids)), classes)
	return ln.finish(), nil
}
