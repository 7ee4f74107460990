package core

import (
	"math/bits"
	"sync"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/isa"
	"racesim/internal/recycle"
)

// lane is one replay of a simulated core of either kind. The two models
// share everything but the back end: the front end (I-cache fetch and
// branch redirects), the branch unit, the memory hierarchy, the pipe
// contention model, the register scoreboard, the data-cache MSHRs and the
// Result bookkeeping, all held here once. Each kind's back end is a field
// of its own (io: in-order, ooo: out-of-order) and is driven by its own
// step kernel, stepInOrder or stepOoO. Lanes are handled by pointer only
// (the contention model and the hierarchy point into themselves).
//
// Lifecycle (Replay): acquire from the lanes free list, reset to the
// configuration, walk the trace with the kind's kernel, read the Result
// with finish, release. reset is the one definition of a fresh lane: a
// lane that has served any number of other configurations, of either kind
// and any geometry, is indistinguishable from a newly allocated one after
// it.
type lane struct {
	// Config-derived and never written during replay.
	fetchLineBits uint
	fetchBase     uint64 // L1I hit latency incl. tag/data serialization
	mispredictPen uint64
	btbMissPen    uint64
	lat           [isa.NumClasses]uint64

	hier *cache.Hierarchy
	bu   *branch.Unit
	cont contention

	regReady [isa.NumRegs]uint64

	fetchAvail    uint64
	lastFetchLine uint64

	mshr   seqRing // outstanding data-cache misses
	sbLast uint64  // last store drain end (drains are serialized)

	endCycle uint64
	res      Result

	io  inOrderBack
	ooo oooBack
}

// lanes is the process-wide free list of lanes. A sync.Pool is bounded by
// the garbage collector (idle lanes are dropped over two collections), so
// recycling never holds more memory than the replays in flight recently
// needed.
var lanes = sync.Pool{New: func() any { return new(lane) }}

// reset makes ln a fresh lane of cfg (a valid one), keeping the arrays it
// owns. tapes decides whether the hierarchy simulates, records or replays
// its decisions (nil: always simulates; see TapeMemo). Only cfg's own back
// end is reset: Validate does not check the other kind's fields, and that
// back end keeps its arrays for a later configuration of its kind.
func (ln *lane) reset(cfg Config, tapes *TapeMemo) error {
	if ln.hier == nil {
		ln.hier, ln.bu = new(cache.Hierarchy), new(branch.Unit)
	}
	if err := tapes.reset(ln.hier, cfg.Mem); err != nil {
		return err
	}
	if err := ln.bu.Reset(cfg.Branch); err != nil {
		return err
	}
	*ln = lane{
		fetchLineBits: uint(bits.TrailingZeros(uint(cfg.Mem.L1I.LineSize))),
		fetchBase:     cfg.Mem.L1I.HitCycles(),
		mispredictPen: uint64(cfg.FrontEnd.MispredictPenalty),
		btbMissPen:    uint64(cfg.FrontEnd.BTBMissPenalty),
		lat:           latencyTable(cfg.Lat),
		hier:          ln.hier,
		bu:            ln.bu,
		mshr:          ln.mshr.reset(cfg.MSHRs),
		lastFetchLine: ^uint64(0),
		io:            ln.io,
		ooo:           ln.ooo,
	}
	ln.cont.reset(cfg.Pipes, cfg.Lat)
	if cfg.Kind == InOrder {
		ln.io = inOrderBack{
			width:       cfg.Width,
			dualIssueLS: cfg.DualIssueLoadStore,
			maxMem:      cfg.MaxMemPerCycle,
			maxBr:       cfg.MaxBranchPerCycle,
			sb:          ln.io.sb.reset(cfg.StoreBufferEntries),
		}
	} else {
		ln.ooo = oooBack{
			dispatchWidth: cfg.DispatchWidth,
			retireWidth:   cfg.RetireWidth,
			rob:           recycle.Slice(ln.ooo.rob, cfg.ROBEntries),
			iq:            recycle.Slice(ln.ooo.iq, cfg.IQEntries),
			lq:            recycle.Slice(ln.ooo.lq, cfg.LQEntries),
			sq:            recycle.Slice(ln.ooo.sq, cfg.SQEntries),
		}
	}
	return nil
}

// fetch accesses the I-cache for pc, the first instruction of a new fetch
// line, at cycle earliest. A fetch slower than an L1I hit stalls the front
// end: fetch returns the cycle the instruction is available from.
func (ln *lane) fetch(earliest, pc, line uint64) uint64 {
	fres := ln.hier.Fetch(earliest, pc)
	if fres.Latency > ln.fetchBase {
		stall := fres.Latency - ln.fetchBase
		ln.res.StallFrontEnd += stall
		earliest += stall
		ln.fetchAvail = earliest
	}
	ln.lastFetchLine = line
	return earliest
}

// finish adds the walk's n instructions and their class histogram, which
// no step counts, and returns the lane's Result.
func (ln *lane) finish(n uint64, classes *[isa.NumClasses]uint64) Result {
	addCounts(&ln.res, n, classes)
	ln.res.Cycles = ln.endCycle
	if ln.res.Cycles == 0 && ln.res.Instructions > 0 {
		ln.res.Cycles = ln.res.Instructions
	}
	ln.res.Branch = ln.bu.Stats()
	ln.res.Mem = ln.hier.Stats()
	ln.res.StallStruct += ln.cont.stalls
	return ln.res
}

// seqRing models a capacity-limited structure whose entries free at known
// times: entry n cannot be allocated before entry n-cap has freed. idx is
// the next slot and wraps explicitly (capacities are rarely powers of two,
// so a modulo here would cost a divide per allocation).
type seqRing struct {
	done []uint64
	idx  int
	full bool // count of allocations has reached capacity
}

// reset returns an empty ring of the given capacity over r's array. Stale
// entries are harmless: wait reads a slot only after note has wrapped,
// that is after every slot was rewritten.
func (r seqRing) reset(capacity int) seqRing {
	return seqRing{done: recycle.Slice(r.done, capacity)}
}

// wait returns how long an allocation at cycle t must stall for a slot.
func (r *seqRing) wait(t uint64) uint64 {
	if !r.full {
		return 0
	}
	if prev := r.done[r.idx]; prev > t {
		return prev - t
	}
	return 0
}

// note records that the next allocated entry frees at done.
func (r *seqRing) note(done uint64) {
	r.done[r.idx] = done
	r.idx++
	if r.idx == len(r.done) {
		r.idx = 0
		r.full = true
	}
}
