package core

// oooBack is the back end of the out-of-order core timing model
// (Cortex-A72 class): wide dispatch into a reorder buffer, dataflow-limited
// issue over the pipe contention model, bounded issue queue, load/store
// queues, MSHR-limited memory-level parallelism, and in-order retirement.
// It is a one-pass window model in the spirit of Sniper's
// instruction-window-centric core. The rest of the model is the lane's.
type oooBack struct {
	dispatchWidth int
	retireWidth   int

	dispatchCycle uint64
	dispatched    int

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
}

// retireSlot assigns an in-order retirement cycle with RetireWidth slots
// per cycle.
func (ln *lane) retireSlot(complete uint64) uint64 {
	o := &ln.ooo
	t := complete + 1
	if t < o.lastRetire {
		t = o.lastRetire
	}
	if t == o.lastRetire && o.retiredInCyc >= o.retireWidth {
		t++
	}
	if t > o.lastRetire {
		o.lastRetire = t
		o.retiredInCyc = 0
	}
	o.retiredInCyc++
	if t > ln.endCycle {
		ln.endCycle = t
	}
	return t
}

// stepOoO advances an out-of-order lane by one dynamic instruction; see
// stepInOrder for the kernel contract.
func (ln *lane) stepOoO(b *Behavior, pc, memAddr, target uint64, taken bool) {
	o := &ln.ooo
	seq := o.seq
	o.seq++

	// Window constraints: the ROB slot of (seq - ROBEntries) must have
	// retired; the IQ slot of (seq - IQEntries) must have issued.
	earliest := ln.fetchAvail
	if r := o.rob[seq%uint64(len(o.rob))]; seq >= uint64(len(o.rob)) && r > earliest {
		ln.res.StallStruct += r - earliest
		earliest = r
	}
	if q := o.iq[seq%uint64(len(o.iq))]; seq >= uint64(len(o.iq)) && q > earliest {
		ln.res.StallStruct += q - earliest
		earliest = q
	}
	if b.kind == stepLoad {
		if l := o.lq[o.loads%uint64(len(o.lq))]; o.loads >= uint64(len(o.lq)) && l > earliest {
			earliest = l
		}
	}
	if b.kind == stepStore {
		if s := o.sq[o.stores%uint64(len(o.sq))]; o.stores >= uint64(len(o.sq)) && s > earliest {
			earliest = s
		}
	}

	// Instruction fetch.
	if line := pc >> ln.fetchLineBits; line != ln.lastFetchLine {
		earliest = ln.fetch(earliest, pc, line)
	}

	// Dispatch slot.
	if earliest > o.dispatchCycle {
		o.dispatchCycle = earliest
		o.dispatched = 0
	}
	if o.dispatched >= o.dispatchWidth {
		o.dispatchCycle++
		o.dispatched = 0
	}
	dispatchAt := o.dispatchCycle
	o.dispatched++

	// Dataflow: operands.
	rr := &ln.regReady
	ready := max(dispatchAt+1, rr[b.src[0]], rr[b.src[1]], rr[b.src[2]]) // one cycle from rename to earliest issue
	if ready > dispatchAt+1 {
		ln.res.StallData += ready - dispatchAt - 1
	}

	issueAt := ln.cont.issue(b.Cls, ready)
	o.iq[seq%uint64(len(o.iq))] = issueAt

	var complete uint64
	switch b.kind {
	case stepLoad:
		// Misses need an MSHR: issue waits for a free one, which bounds
		// memory-level parallelism. Only a load that would wait asks the
		// L1D whether it misses.
		if d := ln.mshr.wait(issueAt); d > 0 && !ln.hier.Probe(memAddr) {
			ln.res.StallStruct += d
			issueAt += d
		}
		res := ln.hier.Load(issueAt, pc, memAddr)
		complete = issueAt + res.Latency
		if res.Level > 1 {
			ln.mshr.note(complete)
		}
		o.lq[o.loads%uint64(len(o.lq))] = complete
		o.loads++

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
		o.sq[o.stores%uint64(len(o.sq))] = drain
		o.stores++
		complete = issueAt + 1

	case stepBranch:
		complete = issueAt + ln.lat[b.Cls]
		out := ln.bu.AccessOutcome(b.Cls, b.Op, pc, target, taken)
		if out.Mispredict {
			if complete+ln.mispredictPen > ln.fetchAvail {
				ln.fetchAvail = complete + ln.mispredictPen
			}
			ln.res.StallFrontEnd += ln.mispredictPen
		} else if out.TargetMiss {
			if dispatchAt+ln.btbMissPen > ln.fetchAvail {
				ln.fetchAvail = dispatchAt + ln.btbMissPen
			}
			ln.res.StallFrontEnd += ln.btbMissPen
		}

	default:
		complete = issueAt + ln.lat[b.Cls]
	}

	rr[b.dst[0]], rr[b.dst[1]] = complete, complete
	o.rob[seq%uint64(len(o.rob))] = ln.retireSlot(complete)
}
