package core

// inOrderBack is the back end of the in-order core timing model
// (Cortex-A53 class: dual-issue with pairing rules, a register scoreboard,
// MSHR-limited hit-under-miss, a draining store buffer, a front end
// redirected by the branch unit): its issue rules and the issue group and
// store buffer a replay mutates. The rest of the model is the lane's.
type inOrderBack struct {
	width       int
	dualIssueLS bool
	maxMem      int
	maxBr       int

	cycle    uint64
	issued   int
	memOps   int
	branches int

	sb seqRing // store buffer occupancy
}

// advanceCycle moves issue on to cycle to, if later, with an empty group.
func (io *inOrderBack) advanceCycle(to uint64) {
	if to > io.cycle {
		io.cycle = to
		io.issued = 0
		io.memOps = 0
		io.branches = 0
	}
}

// slotFor finds the earliest cycle >= t with a free issue slot compatible
// with the instruction's class, honouring width and pairing rules, and
// consumes the slot.
func (ln *lane) slotFor(b *Behavior, t uint64) uint64 {
	io := &ln.io
	isMem := b.kind == stepLoad || b.kind == stepStore
	isBr := b.kind == stepBranch
	for {
		io.advanceCycle(t)
		switch {
		case io.issued >= io.width:
			t = io.cycle + 1
			continue
		case isMem && io.memOps >= io.maxMem:
			t = io.cycle + 1
			continue
		case isMem && !io.dualIssueLS && io.issued > 0:
			t = io.cycle + 1
			continue
		case isBr && io.branches >= io.maxBr:
			t = io.cycle + 1
			continue
		}
		// Structural hazard on the functional unit: find the pipe that
		// frees earliest and, if it is already free, book it in place
		// (a separate reserve would rescan the same pipe group).
		if pipes := ln.cont.pipes[b.Cls]; len(pipes) != 0 {
			bp := bestPipe(pipes)
			if free := pipes[bp]; free > io.cycle {
				ln.cont.stalls += free - io.cycle
				t = free
				continue
			}
			pipes[bp] = io.cycle + ln.cont.ii[b.Cls]
		}
		break
	}
	io.issued++
	if isMem {
		io.memOps++
		if !io.dualIssueLS {
			io.issued = io.width // memory op closes the issue group
		}
	}
	if isBr {
		io.branches++
	}
	return io.cycle
}

func (ln *lane) retire(at uint64) {
	if at > ln.endCycle {
		ln.endCycle = at
	}
}

// stepInOrder advances an in-order lane by one dynamic instruction: b is
// the instruction's shared behavior (never mutated, like the lane's
// config-derived fields), the remaining arguments are the event's dynamic
// fields. It and stepOoO are the step kernels: every replay funnels
// through one of them. Their oracle, the reference simulator in
// internal/sim's tests, shares no code with them; a change to what either
// computes is mirrored there and bumps Epoch. Instruction and class counts
// are NOT updated here — they are lane-invariant over a trace, so finish
// adds them in bulk (see addCounts) instead of paying two
// read-modify-writes per step.
func (ln *lane) stepInOrder(b *Behavior, pc, memAddr, target uint64, taken bool) {
	io := &ln.io
	earliest := ln.fetchAvail
	if io.cycle > earliest {
		earliest = io.cycle
	}

	// Instruction fetch: access the I-cache on each new line.
	if line := pc >> ln.fetchLineBits; line != ln.lastFetchLine {
		earliest = ln.fetch(earliest, pc, line)
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
				io.advanceCycle(issueAt)
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
		if d := io.sb.wait(issueAt); d > 0 {
			ln.res.StallStruct += d
			issueAt += d
			io.advanceCycle(issueAt)
		}
		start := issueAt
		if ln.sbLast > start {
			start = ln.sbLast
		}
		res := ln.hier.Store(start, pc, memAddr)
		drain := start + res.Latency
		ln.sbLast = drain
		io.sb.note(drain)
		// The store retires quickly; the drain happens in the background.
		ln.retire(issueAt + 1)

	case stepBranch:
		resolve := issueAt + ln.lat[b.Cls]
		out := ln.bu.AccessOutcome(b.Cls, b.Op, pc, target, taken)
		if out.Mispredict {
			ln.fetchAvail = resolve + ln.mispredictPen
			ln.res.StallFrontEnd += ln.mispredictPen
		} else if out.TargetMiss {
			if ln.fetchAvail < issueAt+ln.btbMissPen {
				ln.fetchAvail = issueAt + ln.btbMissPen
			}
			ln.res.StallFrontEnd += ln.btbMissPen
		}
		for i := uint8(0); i < b.nDst; i++ { // BL writes the link register
			ln.regReady[b.dst[i]] = resolve
		}
		ln.retire(resolve)

	default:
		done := issueAt + ln.lat[b.Cls]
		for i := uint8(0); i < b.nDst; i++ {
			ln.regReady[b.dst[i]] = done
		}
		ln.retire(done)
	}
}
