package cache

import (
	"fmt"
	"math/bits"

	"racesim/internal/dram"
	"racesim/internal/recycle"
)

// HierarchyConfig describes a two-level cache hierarchy with TLBs and main
// memory, matching the Cortex-A53/A72 organisation (private L1I/L1D,
// unified L2, DRAM).
type HierarchyConfig struct {
	L1I  Config
	L1D  Config
	L2   Config
	DRAM dram.Config

	ITLBEntries    int
	DTLBEntries    int
	TLBMissLatency int
	PageBytes      int

	// ZeroFillOpt models the hardware behaviour the paper observed on
	// uninitialized arrays: once a zero page has been touched, further
	// cold misses to it are satisfied without a memory round trip.
	ZeroFillOpt     bool
	ZeroFillLatency int
}

// Validate reports configuration errors.
func (c HierarchyConfig) Validate() error {
	if err := c.L1I.Validate(); err != nil {
		return err
	}
	if err := c.L1D.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.ITLBEntries <= 0 || c.DTLBEntries <= 0 {
		return fmt.Errorf("cache: TLB entries must be positive (%d, %d)", c.ITLBEntries, c.DTLBEntries)
	}
	if c.TLBMissLatency < 0 {
		return fmt.Errorf("cache: TLBMissLatency = %d", c.TLBMissLatency)
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("cache: PageBytes %d must be a power of two", c.PageBytes)
	}
	if c.ZeroFillOpt && c.ZeroFillLatency <= 0 {
		return fmt.Errorf("cache: ZeroFillLatency = %d with ZeroFillOpt on", c.ZeroFillLatency)
	}
	return nil
}

// tlb is a small fully-associative TLB with LRU replacement. Entries are
// never invalidated, so pages[:n] are the resident ones and a reset only
// rewinds n. Recency is a per-TLB access stamp (as in Level): the LRU
// entry is the minimum stamp, and a hit costs one store instead of aging
// every other entry. A hit is found in O(1) when the page's hint names its
// entry: hint maps a page's low bits to the entry it last hit or filled,
// and is trusted only below n (every entry there was written since reset)
// and when the entry holds the page, so it never changes a result. A TLB
// with at least as many entries as an access stream touches distinct
// pages never evicts: it misses on each page's first access only, whatever
// its size — the bound sim's read profile takes for tlb.itlb_entries and
// tlb.dtlb_entries (sim.Profile). Fetch reaches the ITLB with a subset of
// the trace's PCs, Load and Store reach the DTLB with their addresses;
// nothing else does.
type tlb struct {
	pages  []uint64
	stamp  []uint64
	hint   [tlbHints]int32
	n      int
	tick   uint64
	last   uint64 // most recently accessed page (biased); 0 before first access
	misses uint64
	hits   uint64
}

const tlbHints = 64

func (t *tlb) reset(entries int) {
	*t = tlb{pages: recycle.Slice(t.pages, entries), stamp: recycle.Slice(t.stamp, entries)}
}

// access looks page up, making it resident and most recently used, and
// reports whether it hit. A repeat access to the last page is resident
// (every access makes its page resident) and already MRU, so the scan and
// the LRU update are both no-ops: that case is inlined into the callers.
func (t *tlb) access(page uint64) bool {
	page++ // bias so page 0 is distinguishable from "no access yet" in last
	if page == t.last {
		t.hits++
		return true
	}
	return t.find(page)
}

// find is access past the repeat check, for a biased page.
func (t *tlb) find(page uint64) bool {
	t.last = page
	t.tick++
	h := &t.hint[page%tlbHints]
	if i := int(*h); i < t.n && t.pages[i] == page {
		t.stamp[i] = t.tick
		t.hits++
		return true
	}
	for i, p := range t.pages[:t.n] {
		if p == page {
			t.stamp[i] = t.tick
			*h = int32(i)
			t.hits++
			return true
		}
	}
	t.misses++
	victim := t.n
	if t.n < len(t.pages) {
		t.n++
	} else {
		victim = 0
		for i, s := range t.stamp {
			if s < t.stamp[victim] {
				victim = i
			}
		}
	}
	t.pages[victim] = page
	t.stamp[victim] = t.tick
	*h = int32(victim)
	return false
}

// dramBackend adapts the DRAM model to the Backend interface and applies
// the zero-fill page optimization: a page that has only ever been read is
// an OS zero page, and after its first touch the hardware satisfies
// further cold reads without a memory round trip. Writing a page gives it
// real contents and permanently disqualifies it.
type dramBackend struct {
	mem       dram.DRAM
	cfg       *HierarchyConfig
	pageShift uint
	written   pageSet
	zeroSeen  pageSet
	zeroFills uint64
	rec       *recorder // nil unless the hierarchy is recording a tape
}

func (b *dramBackend) BackAccess(now uint64, pc, addr uint64, write, pf bool) AccessResult {
	page := addr >> b.pageShift
	if write {
		b.written.Add(page)
		return AccessResult{Latency: b.mem.Access(now, true), Level: 3}
	}
	if b.cfg.ZeroFillOpt {
		fill := false
		if !b.written.Contains(page) {
			if fill = b.zeroSeen.Contains(page); !fill {
				b.zeroSeen.Add(page)
			}
		}
		b.rec.put(fill)
		if fill {
			b.zeroFills++
			return AccessResult{Latency: uint64(b.cfg.ZeroFillLatency), Level: 3}
		}
	}
	return AccessResult{Latency: b.mem.Access(now, false), Level: 3}
}

// HierarchyStats aggregates statistics across the hierarchy.
type HierarchyStats struct {
	L1I       Stats
	L1D       Stats
	L2        Stats
	DRAM      dram.Stats
	ITLBMiss  uint64
	DTLBMiss  uint64
	ZeroFills uint64
}

// Hierarchy is a complete memory subsystem for one core. Its components
// point at each other, so a Hierarchy must not be copied; use it through
// the pointer NewHierarchy returns (or Reset a zero value in place).
type Hierarchy struct {
	cfg       HierarchyConfig
	l1i       Level
	l1d       Level
	l2        Level
	mem       dramBackend
	itlb      tlb
	dtlb      tlb
	pageShift uint

	// Decision tape state (tape.go). mode is tapeOff on every hierarchy
	// NewHierarchy or Reset made; Fetch, Load, Store and Probe test it once
	// per call.
	mode    tapeMode
	rec     recorder // tapeRecording: the decisions so far
	tape    *Tape    // tapeReplaying: the decisions to take,
	pos     int      // how many of them have been,
	overrun bool     // and whether more were asked for than it holds
}

// NewHierarchy builds the hierarchy; cfg must be valid.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	h := new(Hierarchy)
	if err := h.Reset(cfg); err != nil {
		return nil, err
	}
	return h, nil
}

// Reset makes h an empty, idle hierarchy of cfg — the state NewHierarchy
// returns, and the only definition of it — while keeping every array h
// already owns (cache lines, TLBs, page sets, prefetcher tables), so a
// recycled hierarchy allocates nothing once it has served its largest
// geometry. The hierarchy Reset returns is live: it simulates every decision
// and neither records nor replays a tape (see Record and Replay).
func (h *Hierarchy) Reset(cfg HierarchyConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	h.cfg = cfg
	h.mode, h.tape, h.mem.rec = tapeOff, nil, nil
	h.pageShift = uint(bits.TrailingZeros(uint(cfg.PageBytes)))
	if err := h.mem.mem.Reset(cfg.DRAM); err != nil {
		return err
	}
	h.mem.cfg, h.mem.pageShift, h.mem.zeroFills = &h.cfg, h.pageShift, 0
	h.mem.written.reset()
	h.mem.zeroSeen.reset()
	if err := h.l2.Reset(cfg.L2, 2, &h.mem); err != nil {
		return err
	}
	if err := h.l1d.Reset(cfg.L1D, 1, &h.l2); err != nil {
		return err
	}
	if err := h.l1i.Reset(cfg.L1I, 1, &h.l2); err != nil {
		return err
	}
	h.itlb.reset(cfg.ITLBEntries)
	h.dtlb.reset(cfg.DTLBEntries)
	return nil
}

// Load services a data load at cycle now.
func (h *Hierarchy) Load(now uint64, pc, addr uint64) AccessResult {
	return h.access(&h.l1d, &h.dtlb, now, pc, addr, false)
}

// Store services a data store at cycle now. Store latency is the time to
// own the line; commit happens through the store buffer in the core model.
func (h *Hierarchy) Store(now uint64, pc, addr uint64) AccessResult {
	return h.access(&h.l1d, &h.dtlb, now, pc, addr, true)
}

// Fetch services an instruction fetch for the line containing pc.
func (h *Hierarchy) Fetch(now uint64, pc uint64) AccessResult {
	return h.access(&h.l1i, &h.itlb, now, pc, pc, false)
}

// access is Fetch, Load or Store: an access to l1 followed by a lookup of
// its page in t.
func (h *Hierarchy) access(l1 *Level, t *tlb, now uint64, pc, addr uint64, write bool) AccessResult {
	if h.mode != tapeOff {
		return h.tapedAccess(l1, t, now, pc, addr, write)
	}
	res, _ := l1.accessLive(now, pc, addr, write, false)
	if !t.access(addr >> h.pageShift) {
		res.Latency += uint64(h.cfg.TLBMissLatency)
	}
	return res
}

// Probe reports whether a data load of addr would be serviced by the L1D
// (its victim buffer included) without changing any observable state: no
// LRU update, no statistics; only the self-validating way predictor may
// move. The MSHR-aware core models ask right before that Load, and only
// when a miss would have to wait for a miss register. Probe is no decision
// of its own: a replaying hierarchy answers it from the tape entry of the
// Load that follows, which is why a core model may ask it or not depending
// on timing.
func (h *Hierarchy) Probe(addr uint64) bool {
	if h.mode == tapeReplaying {
		return h.peek()&tapeOutcome != tapeMiss
	}
	l := &h.l1d
	block := l.block(addr)
	_, _, hit := l.lookup(block)
	for i := 0; !hit && i < len(l.victim); i++ {
		hit = l.victim[i].matches(block)
	}
	return hit
}

// Stats returns aggregated statistics.
func (h *Hierarchy) Stats() HierarchyStats {
	if h.mode == tapeReplaying {
		// The functional totals are the recorded run's; what depends on
		// timing was computed by this one.
		s := h.tape.stats
		s.L1I.PortStalls = h.l1i.stats.PortStalls
		s.L1D.PortStalls = h.l1d.stats.PortStalls
		s.L2.PortStalls = h.l2.stats.PortStalls
		s.DRAM = h.mem.mem.Stats()
		return s
	}
	return HierarchyStats{
		L1I:       h.l1i.Stats(),
		L1D:       h.l1d.Stats(),
		L2:        h.l2.Stats(),
		DRAM:      h.mem.mem.Stats(),
		ITLBMiss:  h.itlb.misses,
		DTLBMiss:  h.dtlb.misses,
		ZeroFills: h.mem.zeroFills,
	}
}
