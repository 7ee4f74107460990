package core

import (
	"math/bits"
	"sync"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/isa"
	"racesim/internal/recycle"
)

// oooStatic is the config-derived state of the out-of-order model that is
// never written during replay; see inOrderStatic.
type oooStatic struct {
	dispatchWidth int
	retireWidth   int

	fetchLineBits uint
	fetchBase     uint64
	mispredictPen uint64
	btbMissPen    uint64

	lat [isa.NumClasses]uint64
}

func newOoOStatic(cfg Config) oooStatic {
	return oooStatic{
		dispatchWidth: cfg.DispatchWidth,
		retireWidth:   cfg.RetireWidth,
		fetchLineBits: uint(bits.TrailingZeros(uint(cfg.Mem.L1I.LineSize))),
		fetchBase:     cfg.Mem.L1I.HitCycles(),
		mispredictPen: uint64(cfg.FrontEnd.MispredictPenalty),
		btbMissPen:    uint64(cfg.FrontEnd.BTBMissPenalty),
		lat:           latencyTable(cfg.Lat),
	}
}

// oooLane is one replay of the out-of-order core timing model (Cortex-A72
// class): wide dispatch into a reorder buffer, dataflow-limited issue over
// the pipe contention model, bounded issue queue, load/store queues,
// MSHR-limited memory-level parallelism, and in-order retirement. It is a
// one-pass window model in the spirit of Sniper's instruction-window-centric
// core. See inOrderLane for the lifecycle.
type oooLane struct {
	st   oooStatic
	hier *cache.Hierarchy
	bu   *branch.Unit
	cont contention

	regReady [isa.NumRegs]uint64

	dispatchCycle uint64
	dispatched    int

	fetchAvail    uint64
	lastFetchLine uint64

	// Window rings, indexed by sequence number mod capacity. A slot is
	// read only once the sequence number has wrapped, that is after it was
	// written, so reset leaves stale entries in place.
	rob    []uint64 // retire cycle by sequence number mod ROBEntries
	iq     []uint64 // issue cycle by sequence number mod IQEntries
	lq     []uint64
	sq     []uint64
	seq    uint64 // instruction sequence number
	loads  uint64
	stores uint64

	lastRetire   uint64
	retiredInCyc int

	mshr   seqRing
	sbLast uint64

	endCycle uint64
	res      Result
}

// oooLanes is the process-wide free list of out-of-order lanes; see
// inOrderLanes.
var oooLanes = sync.Pool{New: func() any { return new(oooLane) }}

// reset makes ln a fresh lane of cfg (a valid one), keeping the arrays it
// owns.
func (ln *oooLane) reset(cfg Config, tapes *TapeMemo) error {
	hier, bu, err := resetUncore(ln.hier, ln.bu, cfg.Mem, cfg.Branch, tapes)
	if err != nil {
		return err
	}
	*ln = oooLane{
		st:            newOoOStatic(cfg),
		hier:          hier,
		bu:            bu,
		rob:           recycle.Slice(ln.rob, cfg.ROBEntries),
		iq:            recycle.Slice(ln.iq, cfg.IQEntries),
		lq:            recycle.Slice(ln.lq, cfg.LQEntries),
		sq:            recycle.Slice(ln.sq, cfg.SQEntries),
		mshr:          ln.mshr.reset(cfg.MSHRs),
		lastFetchLine: ^uint64(0),
	}
	ln.cont.reset(cfg.Pipes, cfg.Lat)
	return nil
}

// finish: see inOrderLane.finish.
func (ln *oooLane) finish(n uint64, classes *[isa.NumClasses]uint64) Result {
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

// retireSlot assigns an in-order retirement cycle with RetireWidth slots
// per cycle.
func (ln *oooLane) retireSlot(complete uint64) uint64 {
	st := &ln.st
	t := complete + 1
	if t < ln.lastRetire {
		t = ln.lastRetire
	}
	if t == ln.lastRetire && ln.retiredInCyc >= st.retireWidth {
		t++
	}
	if t > ln.lastRetire {
		ln.lastRetire = t
		ln.retiredInCyc = 0
	}
	ln.retiredInCyc++
	if t > ln.endCycle {
		ln.endCycle = t
	}
	return t
}

// stepLane advances one lane by one dynamic instruction; see the in-order
// stepLane for the kernel contract.
func (ln *oooLane) stepLane(b *Behavior, pc, memAddr, target uint64, taken bool) {
	st := &ln.st
	seq := ln.seq
	ln.seq++

	// Window constraints: the ROB slot of (seq - ROBEntries) must have
	// retired; the IQ slot of (seq - IQEntries) must have issued.
	earliest := ln.fetchAvail
	if r := ln.rob[seq%uint64(len(ln.rob))]; seq >= uint64(len(ln.rob)) && r > earliest {
		ln.res.StallStruct += r - earliest
		earliest = r
	}
	if q := ln.iq[seq%uint64(len(ln.iq))]; seq >= uint64(len(ln.iq)) && q > earliest {
		ln.res.StallStruct += q - earliest
		earliest = q
	}
	if b.kind == stepLoad {
		if l := ln.lq[ln.loads%uint64(len(ln.lq))]; ln.loads >= uint64(len(ln.lq)) && l > earliest {
			earliest = l
		}
	}
	if b.kind == stepStore {
		if s := ln.sq[ln.stores%uint64(len(ln.sq))]; ln.stores >= uint64(len(ln.sq)) && s > earliest {
			earliest = s
		}
	}

	// Instruction fetch.
	line := pc >> st.fetchLineBits
	if line != ln.lastFetchLine {
		fres := ln.hier.Fetch(earliest, pc)
		if fres.Latency > st.fetchBase {
			stall := fres.Latency - st.fetchBase
			ln.res.StallFrontEnd += stall
			earliest += stall
			if earliest > ln.fetchAvail {
				ln.fetchAvail = earliest
			}
		}
		ln.lastFetchLine = line
	}

	// Dispatch slot.
	if earliest > ln.dispatchCycle {
		ln.dispatchCycle = earliest
		ln.dispatched = 0
	}
	if ln.dispatched >= st.dispatchWidth {
		ln.dispatchCycle++
		ln.dispatched = 0
	}
	dispatchAt := ln.dispatchCycle
	ln.dispatched++

	// Dataflow: operands.
	ready := dispatchAt + 1 // one cycle from rename to earliest issue
	for i := uint8(0); i < b.nSrc; i++ {
		if r := ln.regReady[b.src[i]]; r > ready {
			ready = r
		}
	}
	if ready > dispatchAt+1 {
		ln.res.StallData += ready - dispatchAt - 1
	}

	issueAt := ln.cont.issue(b.Cls, ready)
	ln.iq[seq%uint64(len(ln.iq))] = issueAt

	var complete uint64
	switch b.kind {
	case stepLoad:
		if !ln.hier.Probe(memAddr) {
			// Misses need an MSHR: issue waits for a free one, which
			// bounds memory-level parallelism.
			if d := ln.mshr.wait(issueAt); d > 0 {
				ln.res.StallStruct += d
				issueAt += d
			}
		}
		res := ln.hier.Load(issueAt, pc, memAddr)
		complete = issueAt + res.Latency
		if res.Level > 1 {
			ln.mshr.note(complete)
		}
		ln.lq[ln.loads%uint64(len(ln.lq))] = complete
		ln.loads++

	case stepStore:
		// Stores commit at retirement; the drain is background but
		// serialized, and the SQ entry is held until drain completes.
		start := issueAt
		if ln.sbLast > start {
			start = ln.sbLast
		}
		res := ln.hier.Store(start, pc, memAddr)
		drain := start + res.Latency
		ln.sbLast = drain
		if res.Level > 1 {
			ln.mshr.note(drain)
		}
		ln.sq[ln.stores%uint64(len(ln.sq))] = drain
		ln.stores++
		complete = issueAt + 1

	case stepBranch:
		complete = issueAt + st.lat[b.Cls]
		out := ln.bu.AccessOutcome(b.Cls, b.Op, pc, target, taken)
		if out.Mispredict {
			if complete+st.mispredictPen > ln.fetchAvail {
				ln.fetchAvail = complete + st.mispredictPen
			}
			ln.res.StallFrontEnd += st.mispredictPen
		} else if out.TargetMiss {
			if dispatchAt+st.btbMissPen > ln.fetchAvail {
				ln.fetchAvail = dispatchAt + st.btbMissPen
			}
			ln.res.StallFrontEnd += st.btbMissPen
		}

	default:
		complete = issueAt + st.lat[b.Cls]
	}

	for i := uint8(0); i < b.nDst; i++ {
		ln.regReady[b.dst[i]] = complete
	}
	ln.rob[seq%uint64(len(ln.rob))] = ln.retireSlot(complete)
}
