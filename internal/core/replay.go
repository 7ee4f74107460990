// Decoded replay: one walk over a decoded trace's columns steps one
// recycled lane through its kind's step kernel. It is the only way a trace
// is replayed; the test-only reference simulator in internal/sim checks it.
package core

import (
	"fmt"

	"racesim/internal/isa"
	"racesim/internal/trace"
)

// Replay replays one decoded trace under one configuration of either kind.
// The lane comes from the process-wide free list and goes back to it
// before the call returns. behav must be the behavior table for d.Insts
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
	ln := lanes.Get().(*lane)
	defer lanes.Put(ln)
	if err := ln.reset(cfg, tapes); err != nil {
		return Result{}, err
	}
	if cfg.Kind == InOrder {
		ln.walkInOrder(d, behav)
	} else { // Validate admits no third kind
		ln.walkOoO(d, behav)
	}
	if d.Err != nil {
		return Result{}, fmt.Errorf("core: %w", d.Err)
	}
	if err := tapes.done(ln.hier); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	return ln.finish(uint64(len(d.IDs)), classes), nil
}

// walkInOrder steps the lane through every event of d with the in-order
// kernel. The columns are cut to one length so the walk indexes them
// without bounds checks, and the taken bits are shifted through a word at
// a time instead of re-extracting a bit per event.
func (ln *lane) walkInOrder(d *trace.Decoded, behav []Behavior) {
	ids := d.IDs
	pcs, mems, tgts, taken := d.PC[:len(ids)], d.MemAddr[:len(ids)], d.Target[:len(ids)], d.TakenBits
	var tkWord uint64
	for i := range ids {
		if i&63 == 0 {
			tkWord = taken[i>>6]
		}
		ln.stepInOrder(&behav[ids[i]], pcs[i], mems[i], tgts[i], tkWord&1 != 0)
		tkWord >>= 1
	}
}

// walkOoO is walkInOrder over the out-of-order kernel. Each kernel has its
// own loop so the call in it is direct.
func (ln *lane) walkOoO(d *trace.Decoded, behav []Behavior) {
	ids := d.IDs
	pcs, mems, tgts, taken := d.PC[:len(ids)], d.MemAddr[:len(ids)], d.Target[:len(ids)], d.TakenBits
	var tkWord uint64
	for i := range ids {
		if i&63 == 0 {
			tkWord = taken[i>>6]
		}
		ln.stepOoO(&behav[ids[i]], pcs[i], mems[i], tgts[i], tkWord&1 != 0)
		tkWord >>= 1
	}
}
