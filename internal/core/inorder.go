package core

import (
	"math/bits"
	"sync"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/isa"
	"racesim/internal/recycle"
)

// inOrderStatic is the config-derived state of the in-order model that is
// never written during replay: issue rules, penalties and the by-class
// latency table. Lanes of a batch each carry their own (configs differ per
// lane) while sharing the decoded columns and behavior table.
type inOrderStatic struct {
	width       int
	dualIssueLS bool
	maxMem      int
	maxBr       int

	fetchLineBits uint
	fetchBase     uint64 // L1I hit latency incl. tag/data serialization
	mispredictPen uint64
	btbMissPen    uint64

	lat [isa.NumClasses]uint64
}

func newInOrderStatic(cfg Config) inOrderStatic {
	return inOrderStatic{
		width:         cfg.Width,
		dualIssueLS:   cfg.DualIssueLoadStore,
		maxMem:        cfg.MaxMemPerCycle,
		maxBr:         cfg.MaxBranchPerCycle,
		fetchLineBits: uint(bits.TrailingZeros(uint(cfg.Mem.L1I.LineSize))),
		fetchBase:     cfg.Mem.L1I.HitCycles(),
		mispredictPen: uint64(cfg.FrontEnd.MispredictPenalty),
		btbMissPen:    uint64(cfg.FrontEnd.BTBMissPenalty),
		lat:           latencyTable(cfg.Lat),
	}
}

// inOrderLane is one replay of the in-order core timing model (Cortex-A53
// class: dual-issue with pairing rules, a register scoreboard, MSHR-limited
// hit-under-miss, a draining store buffer, a front-end redirected by the
// branch unit): its config-derived static state plus everything a replay
// mutates. Lanes are handled by pointer only (the contention model and the
// hierarchy point into themselves).
//
// Lifecycle (Replay): acquire from the inOrderLanes free list, reset
// to the configuration, replay, read the Result with finish, release. reset
// is the one definition of a fresh lane: a lane that has served any number
// of other configurations, of any geometry, is indistinguishable from a
// newly allocated one after it.
type inOrderLane struct {
	st   inOrderStatic
	hier *cache.Hierarchy
	bu   *branch.Unit
	cont contention

	regReady [isa.NumRegs]uint64
	cycle    uint64
	issued   int
	memOps   int
	branches int

	fetchAvail    uint64
	lastFetchLine uint64

	mshr   seqRing // outstanding data-cache misses
	sb     seqRing // store buffer occupancy
	sbLast uint64  // last drain end (drains are serialized)

	endCycle uint64
	res      Result
}

// inOrderLanes is the process-wide free list of in-order lanes. A
// sync.Pool is bounded by the garbage collector (idle lanes are dropped
// over two collections), so recycling never holds more memory than the
// replays in flight recently needed.
var inOrderLanes = sync.Pool{New: func() any { return new(inOrderLane) }}

// resetUncore resets the cache hierarchy and branch unit a lane of either
// kind carries from one configuration to the next (nil on a new lane).
// tapes decides whether the hierarchy simulates, records or replays its
// decisions (nil: always simulates; see TapeMemo).
func resetUncore(hier *cache.Hierarchy, bu *branch.Unit, mem cache.HierarchyConfig, br branch.Config, tapes *TapeMemo) (*cache.Hierarchy, *branch.Unit, error) {
	if hier == nil {
		hier, bu = new(cache.Hierarchy), new(branch.Unit)
	}
	if err := tapes.reset(hier, mem); err != nil {
		return nil, nil, err
	}
	if err := bu.Reset(br); err != nil {
		return nil, nil, err
	}
	return hier, bu, nil
}

// reset makes ln a fresh lane of cfg (a valid one), keeping the arrays it
// owns.
func (ln *inOrderLane) reset(cfg Config, tapes *TapeMemo) error {
	hier, bu, err := resetUncore(ln.hier, ln.bu, cfg.Mem, cfg.Branch, tapes)
	if err != nil {
		return err
	}
	*ln = inOrderLane{
		st:            newInOrderStatic(cfg),
		hier:          hier,
		bu:            bu,
		mshr:          ln.mshr.reset(cfg.MSHRs),
		sb:            ln.sb.reset(cfg.StoreBufferEntries),
		lastFetchLine: ^uint64(0),
	}
	ln.cont.reset(cfg.Pipes, cfg.Lat)
	return nil
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

func (ln *inOrderLane) advanceCycle(to uint64) {
	if to > ln.cycle {
		ln.cycle = to
		ln.issued = 0
		ln.memOps = 0
		ln.branches = 0
	}
}

// slotFor finds the earliest cycle >= t with a free issue slot compatible
// with the instruction's class, honouring width and pairing rules, and
// consumes the slot.
func (ln *inOrderLane) slotFor(b *Behavior, t uint64) uint64 {
	st := &ln.st
	isMem := b.kind == stepLoad || b.kind == stepStore
	isBr := b.kind == stepBranch
	for {
		ln.advanceCycle(t)
		switch {
		case ln.issued >= st.width:
			t = ln.cycle + 1
			continue
		case isMem && ln.memOps >= st.maxMem:
			t = ln.cycle + 1
			continue
		case isMem && !st.dualIssueLS && ln.issued > 0:
			t = ln.cycle + 1
			continue
		case isBr && ln.branches >= st.maxBr:
			t = ln.cycle + 1
			continue
		}
		// Structural hazard on the functional unit: find the pipe that
		// frees earliest and, if it is already free, book it in place
		// (a separate reserve would rescan the same pipe group).
		if pipes := ln.cont.pipes[b.Cls]; len(pipes) != 0 {
			bp := bestPipe(pipes)
			if free := pipes[bp]; free > ln.cycle {
				ln.cont.stalls += free - ln.cycle
				t = free
				continue
			}
			pipes[bp] = ln.cycle + ln.cont.ii[b.Cls]
		}
		break
	}
	ln.issued++
	if isMem {
		ln.memOps++
		if !st.dualIssueLS {
			ln.issued = st.width // memory op closes the issue group
		}
	}
	if isBr {
		ln.branches++
	}
	return ln.cycle
}

func (ln *inOrderLane) retire(at uint64) {
	if at > ln.endCycle {
		ln.endCycle = at
	}
}

// finish adds the walk's n instructions and their class histogram, which
// no step counts, and returns the lane's Result.
func (ln *inOrderLane) finish(n uint64, classes *[isa.NumClasses]uint64) Result {
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

// stepLane advances the lane by one dynamic instruction: b is the
// instruction's shared behavior (never mutated, like the lane's static
// state st), the remaining arguments are the event's dynamic fields. It is
// the single step kernel: every replay funnels through it. Its oracle, the
// reference simulator in internal/sim's tests, shares no code with it; a
// change to what it computes is mirrored there and bumps Epoch. Instruction
// and class counts are NOT updated here — they are lane-invariant over a
// trace, so callers add them in bulk (see addCounts) instead of paying two
// read-modify-writes per step.
func (ln *inOrderLane) stepLane(b *Behavior, pc, memAddr, target uint64, taken bool) {
	st := &ln.st
	earliest := ln.fetchAvail
	if ln.cycle > earliest {
		earliest = ln.cycle
	}

	// Instruction fetch: access the I-cache on each new line.
	line := pc >> st.fetchLineBits
	if line != ln.lastFetchLine {
		fres := ln.hier.Fetch(earliest, pc)
		if fres.Latency > st.fetchBase {
			stall := fres.Latency - st.fetchBase
			ln.res.StallFrontEnd += stall
			earliest += stall
			ln.fetchAvail = earliest
		}
		ln.lastFetchLine = line
	}

	// Operand readiness (scoreboard).
	ready := earliest
	for i := uint8(0); i < b.nSrc; i++ {
		if r := ln.regReady[b.src[i]]; r > ready {
			ready = r
		}
	}
	if ready > earliest {
		ln.res.StallData += ready - earliest
	}

	issueAt := ln.slotFor(b, ready)

	switch b.kind {
	case stepLoad:
		if !ln.hier.Probe(memAddr) {
			// A miss needs an MSHR; a full file stalls the pipeline
			// (hit-under-miss is allowed, miss-under-full is not).
			if d := ln.mshr.wait(issueAt); d > 0 {
				ln.res.StallStruct += d
				issueAt += d
				ln.advanceCycle(issueAt)
			}
		}
		res := ln.hier.Load(issueAt, pc, memAddr)
		done := issueAt + res.Latency
		if res.Level > 1 {
			ln.mshr.note(done)
		}
		for i := uint8(0); i < b.nDst; i++ {
			ln.regReady[b.dst[i]] = done
		}
		ln.retire(done)

	case stepStore:
		// A full store buffer stalls the pipeline until a slot drains.
		if d := ln.sb.wait(issueAt); d > 0 {
			ln.res.StallStruct += d
			issueAt += d
			ln.advanceCycle(issueAt)
		}
		start := issueAt
		if ln.sbLast > start {
			start = ln.sbLast
		}
		res := ln.hier.Store(start, pc, memAddr)
		drain := start + res.Latency
		ln.sbLast = drain
		ln.sb.note(drain)
		// The store retires quickly; the drain happens in the background.
		ln.retire(issueAt + 1)

	case stepBranch:
		resolve := issueAt + st.lat[b.Cls]
		out := ln.bu.AccessOutcome(b.Cls, b.Op, pc, target, taken)
		if out.Mispredict {
			ln.fetchAvail = resolve + st.mispredictPen
			ln.res.StallFrontEnd += st.mispredictPen
		} else if out.TargetMiss {
			if ln.fetchAvail < issueAt+st.btbMissPen {
				ln.fetchAvail = issueAt + st.btbMissPen
			}
			ln.res.StallFrontEnd += st.btbMissPen
		}
		for i := uint8(0); i < b.nDst; i++ { // BL writes the link register
			ln.regReady[b.dst[i]] = resolve
		}
		ln.retire(resolve)

	default:
		done := issueAt + st.lat[b.Cls]
		for i := uint8(0); i < b.nDst; i++ {
			ln.regReady[b.dst[i]] = done
		}
		ln.retire(done)
	}
}
