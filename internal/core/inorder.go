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
// with the instruction's class, honouring width and pairing rules, and a
// free pipe, and consumes both. Every issue limit is at least one
// (Config.Validate), so an issue group that cannot take the instruction
// leaves it to the next cycle's empty group, and a busy pipe to the cycle
// it frees, whose group is empty too: one pass, no retry loop.
func (ln *lane) slotFor(b *Behavior, t uint64) uint64 {
	io := &ln.io
	io.advanceCycle(t)
	full := io.issued >= io.width
	switch b.kind {
	case stepLoad, stepStore:
		full = full || io.memOps >= io.maxMem || !io.dualIssueLS && io.issued > 0
	case stepBranch:
		full = full || io.branches >= io.maxBr
	}
	if full {
		io.advanceCycle(io.cycle + 1)
	}
	// Structural hazard on the functional unit.
	io.advanceCycle(ln.cont.issue(b.Cls, io.cycle))
	io.issued++
	switch b.kind {
	case stepLoad, stepStore:
		io.memOps++
		if !io.dualIssueLS {
			io.issued = io.width // memory op closes the issue group
		}
	case stepBranch:
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
	rr := &ln.regReady
	ready := max(earliest, rr[b.src[0]], rr[b.src[1]], rr[b.src[2]])
	if ready > earliest {
		ln.res.StallData += ready - earliest
	}

	issueAt := ln.slotFor(b, ready)

	switch b.kind {
	case stepLoad:
		// A miss needs an MSHR; a full file stalls the pipeline
		// (hit-under-miss is allowed, miss-under-full is not). Only a
		// load that would wait asks the L1D whether it misses.
		if d := ln.mshr.wait(issueAt); d > 0 && !ln.hier.Probe(memAddr) {
			ln.res.StallStruct += d
			issueAt += d
			io.advanceCycle(issueAt)
		}
		res := ln.hier.Load(issueAt, pc, memAddr)
		done := issueAt + res.Latency
		if res.Level > 1 {
			ln.mshr.note(done)
		}
		rr[b.dst[0]], rr[b.dst[1]] = done, done
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
		rr[b.dst[0]], rr[b.dst[1]] = resolve, resolve // BL writes the link register
		ln.retire(resolve)

	default:
		done := issueAt + ln.lat[b.Cls]
		rr[b.dst[0]], rr[b.dst[1]] = done, done
		ln.retire(done)
	}
}
