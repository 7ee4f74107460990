// Lane-batched replay: one walk over a decoded trace's columns steps a
// vector of per-config lanes. Lanes are fully independent — nothing in a
// lane reads another lane — so each lane's Result is identical to a
// sequential RunDecoded of its config by construction (the walk drives the
// same stepLane kernel with the same per-lane argument sequence).
//
// The walk is chunked lane-major: events are consumed in fixed-size column
// chunks, and within a chunk each lane replays all of the chunk's events
// before the next lane starts. Per-lane event order — the only order that
// matters, since lanes never interact — is preserved exactly. The chunk
// keeps the column slab (IDs, PCs, addresses, targets, taken bits) hot in
// the host cache across all lane passes, while each lane pass keeps that
// lane's model state (cache arrays, predictor tables) hot across thousands
// of consecutive steps instead of being evicted by the other lanes' state
// after every event, as a strict per-event lockstep walk would.
package core

import (
	"fmt"

	"racesim/internal/isa"
	"racesim/internal/trace"
)

// batchChunk is the number of events a lane replays before the walk moves
// to the next lane. At ~29 bytes of column data per event a chunk is a
// ~120 KiB slab — comfortably L2-resident on anything this runs on — while
// being long enough that a lane's working set dominates its pass.
const batchChunk = 4096

// ReplayInOrder replays one decoded trace through one in-order lane per
// configuration in a single chunked walk over d's columns and writes lane
// i's Result to out[i] (len(out) must be len(cfgs)). Lanes come from the
// process-wide free list and go back to it before the call returns.
// behav must be the behavior table for d.Insts (nil: compiled here),
// classes d's class histogram under it (ClassHistogram; nil: counted here),
// tapes d's own tape memo (nil: every lane simulates its memory hierarchy
// live). Every config must be valid and share d's decoder variant — a batch
// cannot mix DepBug settings with its trace.
func ReplayInOrder(cfgs []InOrderConfig, d *trace.Decoded, behav []Behavior, classes *[isa.NumClasses]uint64,
	tapes *TapeMemo, out []Result) error {
	lanes := make([]*inOrderLane, 0, len(cfgs))
	defer func() {
		for _, ln := range lanes {
			inOrderLanes.Put(ln)
		}
	}()
	for i := range cfgs {
		if d.DepBug != cfgs[i].DecoderDepBug {
			return fmt.Errorf("core: decoded trace uses DepBug=%v, lane %d configured with %v", d.DepBug, i, cfgs[i].DecoderDepBug)
		}
		ln := inOrderLanes.Get().(*inOrderLane)
		lanes = append(lanes, ln)
		if err := ln.reset(cfgs[i], tapes); err != nil {
			return err
		}
	}
	if behav == nil {
		behav = CompileBehaviors(d.Insts)
	}
	ids, pcs, mems, tgts := d.IDs, d.PC, d.MemAddr, d.Target
	for s := 0; s < len(ids); s += batchChunk {
		e := min(s+batchChunk, len(ids))
		idsC, pcsC := ids[s:e], pcs[s:e]
		memsC, tgtsC := mems[s:e], tgts[s:e]
		// batchChunk is a multiple of 64, so chunk starts are word-aligned
		// in the taken bitset and each lane pass can shift through whole
		// words instead of re-extracting a bit per event.
		tkC := d.TakenBits[s>>6:]
		for _, ln := range lanes {
			var tkWord uint64
			for i := range idsC {
				if i&63 == 0 {
					tkWord = tkC[i>>6]
				}
				ln.stepLane(&behav[idsC[i]], pcsC[i], memsC[i], tgtsC[i], tkWord&1 != 0)
				tkWord >>= 1
			}
		}
	}
	if d.Err != nil {
		return fmt.Errorf("core: %w", d.Err)
	}
	if classes == nil {
		cc := ClassHistogram(ids, behav)
		classes = &cc
	}
	for l, ln := range lanes {
		if err := tapes.done(ln.hier); err != nil {
			return fmt.Errorf("core: lane %d: %w", l, err)
		}
		addCounts(&ln.res, uint64(len(ids)), classes)
		out[l] = ln.finish()
	}
	return nil
}

// ReplayOoO replays one decoded trace through one out-of-order lane per
// configuration; see ReplayInOrder.
func ReplayOoO(cfgs []OoOConfig, d *trace.Decoded, behav []Behavior, classes *[isa.NumClasses]uint64,
	tapes *TapeMemo, out []Result) error {
	lanes := make([]*oooLane, 0, len(cfgs))
	defer func() {
		for _, ln := range lanes {
			oooLanes.Put(ln)
		}
	}()
	for i := range cfgs {
		if d.DepBug != cfgs[i].DecoderDepBug {
			return fmt.Errorf("core: decoded trace uses DepBug=%v, lane %d configured with %v", d.DepBug, i, cfgs[i].DecoderDepBug)
		}
		ln := oooLanes.Get().(*oooLane)
		lanes = append(lanes, ln)
		if err := ln.reset(cfgs[i], tapes); err != nil {
			return err
		}
	}
	if behav == nil {
		behav = CompileBehaviors(d.Insts)
	}
	ids, pcs, mems, tgts := d.IDs, d.PC, d.MemAddr, d.Target
	for s := 0; s < len(ids); s += batchChunk {
		e := min(s+batchChunk, len(ids))
		idsC, pcsC := ids[s:e], pcs[s:e]
		memsC, tgtsC := mems[s:e], tgts[s:e]
		tkC := d.TakenBits[s>>6:] // word-aligned, as in ReplayInOrder
		for _, ln := range lanes {
			var tkWord uint64
			for i := range idsC {
				if i&63 == 0 {
					tkWord = tkC[i>>6]
				}
				ln.stepLane(&behav[idsC[i]], pcsC[i], memsC[i], tgtsC[i], tkWord&1 != 0)
				tkWord >>= 1
			}
		}
	}
	if d.Err != nil {
		return fmt.Errorf("core: %w", d.Err)
	}
	if classes == nil {
		cc := ClassHistogram(ids, behav)
		classes = &cc
	}
	for l, ln := range lanes {
		if err := tapes.done(ln.hier); err != nil {
			return fmt.Errorf("core: lane %d: %w", l, err)
		}
		addCounts(&ln.res, uint64(len(ids)), classes)
		out[l] = ln.finish()
	}
	return nil
}
