// Decoded replay: one walk over a decoded trace's columns steps one
// recycled lane through the stepLane kernel. It is the only way a trace is
// replayed; the test-only reference simulator in internal/sim checks it.
package core

import (
	"fmt"

	"racesim/internal/cache"
	"racesim/internal/isa"
	"racesim/internal/trace"
)

// lane is one replay of either core model, as Replay drives it: reset to a
// configuration, walk the trace, then read the hierarchy and the Result.
// The walk is the lane's own loop and calls its stepLane directly.
type lane interface {
	reset(cfg Config, tapes *TapeMemo) error
	walk(d *trace.Decoded, behav []Behavior)
	hierarchy() *cache.Hierarchy
	finish(n uint64, classes *[isa.NumClasses]uint64) Result
}

// Replay replays one decoded trace under one configuration of either kind.
// The lane comes from the kind's process-wide free list and goes back to
// it before the call returns. behav must be the behavior table for d.Insts
// (CompileBehaviors), classes d's class histogram under it
// (ClassHistogram), tapes d's own tape memo (nil: the memory hierarchy is
// simulated live). A configuration that is invalid or does not share d's
// decoder variant is an error.
func Replay(cfg Config, d *trace.Decoded, behav []Behavior, classes *[isa.NumClasses]uint64,
	tapes *TapeMemo) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if d.DepBug != cfg.DecoderDepBug {
		return Result{}, fmt.Errorf("core: decoded trace uses DepBug=%v, configuration %v", d.DepBug, cfg.DecoderDepBug)
	}
	var ln lane
	if cfg.Kind == InOrder {
		l := inOrderLanes.Get().(*inOrderLane)
		defer inOrderLanes.Put(l)
		ln = l
	} else { // Validate admits no third kind
		l := oooLanes.Get().(*oooLane)
		defer oooLanes.Put(l)
		ln = l
	}
	if err := ln.reset(cfg, tapes); err != nil {
		return Result{}, err
	}
	ln.walk(d, behav)
	if d.Err != nil {
		return Result{}, fmt.Errorf("core: %w", d.Err)
	}
	if err := tapes.done(ln.hierarchy()); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	return ln.finish(uint64(len(d.IDs)), classes), nil
}

// walk steps the lane through every event of d. The columns are cut to one
// length so the walk indexes them without bounds checks, and the taken bits
// are shifted through a word at a time instead of re-extracting a bit per
// event.
func (ln *inOrderLane) walk(d *trace.Decoded, behav []Behavior) {
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
}

// walk is inOrderLane.walk over the out-of-order step kernel.
func (ln *oooLane) walk(d *trace.Decoded, behav []Behavior) {
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
}

func (ln *inOrderLane) hierarchy() *cache.Hierarchy { return ln.hier }
func (ln *oooLane) hierarchy() *cache.Hierarchy     { return ln.hier }
