package cache

import (
	"bytes"
	"fmt"

	"racesim/internal/dram"
	"racesim/internal/prefetch"
)

// Decision tapes.
//
// Nothing a hierarchy decides depends on time. Tags, LRU stamps, victim
// buffers, prefetcher tables, TLBs and the zero-fill page sets evolve as a
// function of the access sequence alone; the cycle an access is issued at
// moves only the port arbitration of each level (Level.portDelay) and the
// DRAM queue (dram.DRAM.Access). Two hierarchies that are driven with the
// same sequence of Fetch/Load/Store calls and whose configurations
// differ only in timing — latencies, port counts, MSHRs, memory timing —
// therefore take the same hit/miss/evict/prefetch decisions. Which fields
// those are is declared once, beside the tunables that name them
// (sim.ParamDef.TimingOnly); the caller keys tapes on it (core.TapeMemo).
//
// A Tape is the stream of those decisions, recorded once by a hierarchy
// that runs normally and writes them down (Record), and replayed by any
// number of later hierarchies (Replay) that walk only the timing skeleton —
// port delays, DRAM queue, latency composition, the same nested
// back-accesses in the same order at the same cycles — without touching a
// tag array, an LRU stamp, a prefetcher table, a TLB or a page set.
// Addresses are never needed in replay. A hierarchy built by NewHierarchy
// or Reset is neither: it is the live model the other two are tested
// against.
//
// Layout, one byte per decision in the order the hierarchy takes them:
//
//	Fetch/Load/Store  <L1 access> tlbHit
//	<access>          entry <back-accesses, in call order> [n {<prefetch read> evictWB}*n]
//	DRAM read         zeroFilled            (only with ZeroFillOpt)
//
// entry is outcome | tapeEvictWB? | tapePrefetched?; the bracketed group is
// present when entry has tapePrefetched. Which back-accesses an access
// makes follows from its outcome, its arguments and the level's write
// policy (see replayAccess, which mirrors Level.accessLive line for line).
// Probe takes no decision: it reads the outcome of the L1D entry of the
// Load that follows it (peek), so whether a core model probes — which
// depends on timing — does not shift the tape.

// Entry bits of one Level access.
const (
	tapeHit       = 0 // found in the main array
	tapeVictimHit = 1 // found in the victim buffer and reinserted
	tapeMiss      = 2 // fetched from the next level
	tapeOutcome   = 3 // mask of the three above

	tapeEvictWB    = 1 << 2 // the line this access displaced was written back
	tapePrefetched = 1 << 3 // the prefetcher issued reads; their count follows
)

// A prefetch count is one tape byte.
const _ = uint8(prefetch.MaxTargets)

// Tape is the recorded decision stream of one hierarchy run. It is
// immutable: any number of hierarchies may replay it at once.
type Tape struct {
	dec []byte
	// stats holds the functional totals of the recorded run. PortStalls
	// and the DRAM counters are zero: they depend on timing and are
	// computed by each replay.
	stats HierarchyStats
}

// recorder collects the tape of a recording hierarchy. Its buffer belongs
// to the hierarchy and is reused by later recordings; Tape copies it out.
// The methods are no-ops on a nil recorder, which is what every level and
// memory of a hierarchy that is not recording holds, so the rare decision
// points (a prefetch issued, a page zero-filled) record without a mode
// test of their own. The frequent one, a Level access, tests once, in
// BackAccess.
type recorder struct {
	buf []byte
}

// put appends one decision.
func (r *recorder) put(b bool) {
	if r == nil {
		return
	}
	if b {
		r.buf = append(r.buf, 1)
	} else {
		r.buf = append(r.buf, 0)
	}
}

// reserve appends a decision that is filled in later, with set: its place
// on the tape is before the accesses it causes, its value known only after
// them. It returns the decision's slot.
func (r *recorder) reserve() (slot int) {
	if r == nil {
		return 0
	}
	r.buf = append(r.buf, 0)
	return len(r.buf) - 1
}

func (r *recorder) set(slot int, b byte) {
	if r != nil {
		r.buf[slot] = b
	}
}

// tapeMode says what a hierarchy does with decisions: take them (the
// default), take them and write them down, or read them back.
type tapeMode uint8

const (
	tapeOff tapeMode = iota
	tapeRecording
	tapeReplaying
)

// Record makes h an empty hierarchy of cfg, as Reset does, that also
// writes down every decision it takes. Once the run is over, Tape returns
// the recording.
func (h *Hierarchy) Record(cfg HierarchyConfig) error {
	if err := h.Reset(cfg); err != nil {
		return err
	}
	h.mode = tapeRecording
	h.rec.buf = h.rec.buf[:0]
	h.l1i.rec, h.l1d.rec, h.l2.rec, h.mem.rec = &h.rec, &h.rec, &h.rec, &h.rec
	return nil
}

// Tape returns the tape of the run since Record, or nil when h is not
// recording. The run must be complete: a tape replays the whole access
// sequence it was recorded over and nothing else.
func (h *Hierarchy) Tape() *Tape {
	if h.mode != tapeRecording {
		return nil
	}
	t := &Tape{dec: bytes.Clone(h.rec.buf), stats: h.Stats()}
	t.stats.L1I.PortStalls, t.stats.L1D.PortStalls, t.stats.L2.PortStalls = 0, 0, 0
	t.stats.DRAM = dram.Stats{}
	return t
}

// Replay makes h an idle hierarchy of cfg that takes its decisions from t
// instead of simulating them. t must have been recorded under a
// configuration that takes cfg's decisions, and h must then be driven with
// the access sequence t was recorded over; ReplayErr reports a run that
// was not. The functional arrays h owns are left as they are, for the next
// Reset to recycle.
func (h *Hierarchy) Replay(cfg HierarchyConfig, t *Tape) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	h.cfg = cfg
	if err := h.mem.mem.Reset(cfg.DRAM); err != nil {
		return err
	}
	h.l1i.resetTiming(cfg.L1I, 1)
	h.l1d.resetTiming(cfg.L1D, 1)
	h.l2.resetTiming(cfg.L2, 2)
	h.mode, h.tape, h.pos, h.overrun = tapeReplaying, t, 0, false
	return nil
}

// resetTiming makes l an idle level of cfg for replay: everything
// replayAccess and portDelay read, and nothing else.
func (l *Level) resetTiming(cfg Config, levelID int) {
	l.cfg, l.levelID, l.hitLat = cfg, levelID, cfg.HitCycles()
	l.stats = Stats{}
	l.portCycle, l.portsUsed = 0, 0
	l.rec = nil
}

// ReplayErr reports whether a replaying hierarchy consumed its tape
// exactly: every decision read, none missing, and as many accesses at each
// level as were recorded. Anything else means the access sequence was not
// the recorded one (another trace, another fetch granularity, a changed
// call pattern in a core model) and the run's results are meaningless. It
// returns nil on a hierarchy that is not replaying.
func (h *Hierarchy) ReplayErr() error {
	if h.mode != tapeReplaying {
		return nil
	}
	t := h.tape
	switch {
	case h.overrun:
		return fmt.Errorf("cache: replay ran past the end of its %d-decision tape", len(t.dec))
	case h.pos != len(t.dec):
		return fmt.Errorf("cache: replay consumed %d of %d taped decisions", h.pos, len(t.dec))
	case h.l1i.stats.Accesses != t.stats.L1I.Accesses ||
		h.l1d.stats.Accesses != t.stats.L1D.Accesses ||
		h.l2.stats.Accesses != t.stats.L2.Accesses:
		return fmt.Errorf("cache: replay made %d/%d/%d L1I/L1D/L2 accesses, tape recorded %d/%d/%d",
			h.l1i.stats.Accesses, h.l1d.stats.Accesses, h.l2.stats.Accesses,
			t.stats.L1I.Accesses, t.stats.L1D.Accesses, t.stats.L2.Accesses)
	}
	return nil
}

// accessRecorded is accessLive on a recording level: the entry's place on
// the tape is before everything the access causes, its value known after.
func (l *Level) accessRecorded(now uint64, pc, addr uint64, write, pf bool) AccessResult {
	slot := l.rec.reserve()
	res, entry := l.accessLive(now, pc, addr, write, pf)
	l.rec.set(slot, entry)
	return res
}

// peek returns the next taped decision without consuming it (0 past the
// end, where the access that reads it flags the overrun).
func (h *Hierarchy) peek() byte {
	if h.pos < len(h.tape.dec) {
		return h.tape.dec[h.pos]
	}
	return 0
}

// next reads the next taped decision. Past the end it returns 0 and flags
// the overrun for ReplayErr.
func (h *Hierarchy) next() byte {
	if h.pos < len(h.tape.dec) {
		b := h.tape.dec[h.pos]
		h.pos++
		return b
	}
	h.overrun = true
	return 0
}

// tapedAccess is Fetch/Load/Store on a hierarchy that is recording or
// replaying: an access to l1 followed by a lookup in its TLB.
func (h *Hierarchy) tapedAccess(l1 *Level, t *tlb, now uint64, pc, addr uint64, write bool) AccessResult {
	var res AccessResult
	var tlbHit bool
	if h.mode == tapeReplaying {
		res = h.replayAccess(l1, now, write, false)
		tlbHit = h.next() != 0
	} else {
		res = l1.accessRecorded(now, pc, addr, write, false)
		tlbHit = t.access(addr >> h.pageShift)
		h.rec.put(tlbHit)
	}
	if !tlbHit {
		res.Latency += uint64(h.cfg.TLBMissLatency)
	}
	return res
}

// replayAccess is Level.accessLive with every decision read from the tape:
// the same port arbitration, the same back-accesses in the same order at
// the same cycles, the same latency composition, and no functional state.
// (The only statistics it keeps are the ones that depend on timing, plus
// the access count ReplayErr checks.)
func (h *Hierarchy) replayAccess(l *Level, now uint64, write, pf bool) AccessResult {
	entry := h.next()
	l.stats.Accesses++
	lat := l.hitLat + l.portDelay(now)
	res := AccessResult{Latency: lat, Level: l.levelID}
	switch entry & tapeOutcome {
	case tapeHit:
		if write && !l.cfg.WriteBack {
			h.replayBack(l, now+lat, true, true) // write-through traffic
		}
	case tapeVictimHit:
		lat++
		res.Latency = lat
		if write && !l.cfg.WriteBack {
			h.replayBack(l, now+lat, true, true)
		}
		if entry&tapeEvictWB != 0 {
			h.replayBack(l, now, true, true)
		}
	default:
		allocate := !write || l.cfg.WriteAllocate
		back := h.replayBack(l, now+lat, write && !allocate, pf)
		res = AccessResult{Latency: lat + back.Latency, Level: back.Level}
		if entry&tapeEvictWB != 0 {
			h.replayBack(l, now, true, true)
		}
		if allocate && write && !l.cfg.WriteBack {
			h.replayBack(l, now+res.Latency, true, true)
		}
	}
	if entry&tapePrefetched != 0 {
		for n := h.next(); n > 0; n-- {
			h.replayBack(l, now, false, true)
			if h.next() != 0 {
				h.replayBack(l, now, true, true)
			}
		}
	}
	return res
}

// replayBack is l.next.BackAccess in replay: the L2 behind either L1, the
// memory behind the L2.
func (h *Hierarchy) replayBack(l *Level, now uint64, write, pf bool) AccessResult {
	if l != &h.l2 {
		return h.replayAccess(&h.l2, now, write, pf)
	}
	if !write && h.cfg.ZeroFillOpt && h.next() != 0 {
		return AccessResult{Latency: uint64(h.cfg.ZeroFillLatency), Level: 3}
	}
	return AccessResult{Latency: h.mem.mem.Access(now, write), Level: 3}
}
