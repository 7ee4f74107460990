package cache

import (
	"fmt"
	"math/bits"

	"racesim/internal/prefetch"
	"racesim/internal/recycle"
)

// AccessResult reports how an access was serviced.
type AccessResult struct {
	// Latency is the total load-to-use latency in cycles.
	Latency uint64
	// Level is the hierarchy level that supplied the data: 1 for an L1
	// hit, 2 for L2, 3 for memory (0 is returned for pure write-through
	// stores that complete in a store buffer).
	Level int
}

// Backend services the misses of a Level: the next cache level or memory.
type Backend interface {
	// BackAccess services a line request. now is the issue cycle, pc the
	// requesting instruction, write whether the line will be written, pf
	// whether this is a prefetch (prefetches must not recursively train
	// prefetchers).
	BackAccess(now uint64, pc, addr uint64, write, pf bool) AccessResult
}

// Stats counts per-level events.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Reads          uint64
	Writes         uint64
	Evictions      uint64
	Writebacks     uint64
	VictimHits     uint64
	PrefetchIssued uint64
	PrefetchUseful uint64
	PortStalls     uint64 // cycles lost to port contention
}

// MissRate returns misses/accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MPKI returns misses per kilo-instruction.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instructions) * 1000
}

// line packs one cache line into a single word: the block address
// (addr >> lineBits) in the low 61 bits, valid/dirty/prefetched flags in
// the top three. Physical block addresses never approach 61 bits, and the
// packing halves the tag-array footprint — under lane-batched replay a
// dozen simulated hierarchies compete for the host cache, so tag scans are
// bandwidth-bound. A hit test is one masked compare (flags stripped, valid
// required), not separate flag and tag loads.
type line uint64

const (
	lineValid      line = 1 << 63
	lineDirty      line = 1 << 62
	linePrefetched line = 1 << 61
	lineFlagMask        = lineDirty | linePrefetched
	lineTagMask         = linePrefetched - 1
)

func (ln line) valid() bool      { return ln&lineValid != 0 }
func (ln line) dirty() bool      { return ln&lineDirty != 0 }
func (ln line) prefetched() bool { return ln&linePrefetched != 0 }
func (ln line) tag() uint64      { return uint64(ln & lineTagMask) }

// matches reports a hit for block: valid with the same tag, any flags.
func (ln line) matches(block uint64) bool {
	return ln&^lineFlagMask == line(block)|lineValid
}

func newLine(block uint64, dirty, prefetched bool) line {
	ln := line(block) | lineValid
	if dirty {
		ln |= lineDirty
	}
	if prefetched {
		ln |= linePrefetched
	}
	return ln
}

// Level is one set-associative cache level.
type Level struct {
	cfg      Config
	levelID  int
	sets     int
	setMask  uint64 // sets-1 (sets are validated powers of two)
	assoc    int
	lineBits uint
	hitLat   uint64 // HitLatency plus the TagDataSerial extra cycle
	hash     hashFn // cfg.Hash, resolved by Reset
	repl     replFn // cfg.Repl, resolved by Reset
	xorBits  uint   // log2(sets): the XOR hash's fold width, the Mersenne modulus's exponent

	// Main-array lines are never invalidated (only victim-buffer entries
	// are), so a set fills its ways in order: ways [0, fill[set]) are
	// valid and nothing reads the rest. Reset therefore clears fill and
	// leaves the stale lines and stamps of the previous simulation alone.
	// lines has one slot past the array, always zero (invalid): the
	// position an empty predictor entry names.
	lines   []line
	lru     []uint64 // access stamp per valid way (max = MRU; see touch)
	lruTick uint64
	fill    []uint16 // valid lines per set
	plru    []uint32
	rng     uint64

	victim     []line
	victimAge  []uint64 // insertion stamp per victim entry (min = oldest)
	victimTick uint64
	bank       *prefetch.Bank // every kind's state, recycled with the level
	pf         prefetch.Prefetcher
	pfNone     bool // disabled prefetcher: skip training entirely
	next       Backend
	stats      Stats
	portCycle  uint64
	portsUsed  int
	inPrefetch bool // reentrancy guard

	// rec is the decision tape being recorded (see tape.go), nil on every
	// level that is not part of a recording Hierarchy.
	rec *recorder

	pred wayPredictor // last: 2 KB that would part the fields above
}

// hashFn and replFn are a level's index hash and replacement policy,
// resolved from the configuration's names once per Reset, so that the
// per-access switches compare a byte instead of a string.
type (
	hashFn uint8
	replFn uint8
)

const (
	hashMask hashFn = iota
	hashXor
	hashMersenne
)

const (
	replLRU replFn = iota
	replPLRU
	replRandom
)

// Reset makes l an empty level of cfg at depth levelID (1 = closest to the
// core) in front of next, and keeps its arrays, which grow to the largest
// geometry l has served. The cost is O(sets), not O(lines). A new(Level)
// is ready for Reset.
func (l *Level) Reset(cfg Config, levelID int, next Backend) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if next == nil {
		return fmt.Errorf("cache %s: nil backend", cfg.Name)
	}
	bank := l.bank
	if bank == nil {
		bank = new(prefetch.Bank)
	}
	pf, err := bank.Reset(cfg.Prefetch, cfg.LineSize)
	if err != nil {
		return err
	}
	sets := cfg.Sets()
	n := sets * cfg.Assoc
	*l = Level{
		cfg:       cfg,
		levelID:   levelID,
		sets:      sets,
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		hitLat:    cfg.HitCycles(),
		lineBits:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		xorBits:   uint(bits.TrailingZeros(uint(sets))),
		lines:     recycle.Slice(l.lines, n+1),
		lru:       recycle.Slice(l.lru, n),
		fill:      recycle.Zeroed(l.fill, sets),
		plru:      recycle.Zeroed(l.plru, sets),
		rng:       0x9E3779B97F4A7C15,
		victim:    recycle.Zeroed(l.victim, cfg.VictimEntries),
		victimAge: recycle.Slice(l.victimAge, cfg.VictimEntries),
		bank:      bank,
		pf:        pf,
		pfNone:    cfg.Prefetch.Kind == prefetch.KindNone,
		next:      next,
	}
	switch cfg.Hash {
	case HashXor:
		l.hash = hashXor
	case HashMersenne:
		l.hash = hashMersenne
	}
	switch cfg.Repl {
	case ReplPLRU:
		l.repl = replPLRU
	case ReplRandom:
		l.repl = replRandom
	}
	l.lines[n] = 0
	l.pred.reset(int32(n))
	return nil
}

// wayPredictor remembers where recently found blocks sit in the main
// array: a direct-mapped table from a block's low bits to its line's index
// and set. It is self-validating — an entry is trusted only when the line
// it names matches the block, and a block occupies at most one line of
// the main array — so it never needs invalidation and never changes a
// result; it only skips the way scan. Demand accesses, inserts and the
// prefetcher's target checks share it. An empty entry names the always
// invalid slot past the array; Reset empties the table, because the stale
// lines of the previous simulation would otherwise validate stale entries.
type wayPredictor [predEntries]wayHint

const predEntries = 256

type wayHint struct{ idx, set int32 }

func (p *wayPredictor) reset(empty int32) {
	for i := range p {
		p[i] = wayHint{idx: empty}
	}
}

func (p *wayPredictor) at(block uint64) *wayHint { return &p[(block^block>>8)%predEntries] }

// Stats returns accumulated counters.
func (l *Level) Stats() Stats { return l.stats }

func (l *Level) block(addr uint64) uint64 { return addr >> l.lineBits }

// index computes the set index for a block address per the configured hash.
func (l *Level) index(block uint64) int {
	switch l.hash {
	case hashXor:
		b := l.xorBits
		return int((block ^ block>>b ^ block>>(2*b)) & l.setMask)
	case hashMersenne:
		// block mod sets-1: one set is sacrificed, as in prime-modulo schemes.
		return int(mersenneMod(block, l.xorBits))
	default:
		return int(block & l.setMask)
	}
}

// mersenneMod returns x mod 2^k-1 (0 for k = 0) without a divide. As
// 2^k is 1 modulo 2^k-1, adding x's high bits to its low k bits (an
// end-around carry) keeps its residue; the folds end at most 2^k-1, which
// is 0.
func mersenneMod(x uint64, k uint) uint64 {
	m := uint64(1)<<k - 1
	if m == 0 {
		return 0
	}
	for x > m {
		x = x&m + x>>k
	}
	if x == m {
		return 0
	}
	return x
}

func (l *Level) xorshift() uint64 {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return l.rng
}

// touch records an access to the line at lines[idx], in set.
func (l *Level) touch(set, idx int) {
	switch l.repl {
	case replPLRU:
		// Tree PLRU: flip internal nodes along the path away from `way`.
		way := idx - set*l.assoc
		node := 1
		lo, hi := 0, l.assoc
		treeBits := l.plru[set]
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if way < mid {
				treeBits |= 1 << uint(node) // point away (right)
				node = node * 2
				hi = mid
			} else {
				treeBits &^= 1 << uint(node) // point away (left)
				node = node*2 + 1
				lo = mid
			}
		}
		l.plru[set] = treeBits
	case replRandom:
		// no state
	default: // LRU
		// Timestamp LRU: a per-level tick orders accesses totally, so the
		// least-recently-used way is the minimum stamp. Replacement
		// decisions are identical to rank-based LRU (both evict by recency
		// order) but touching is a single store instead of an aging loop.
		l.lruTick++
		l.lru[idx] = l.lruTick
	}
}

func (l *Level) victimWay(set int) int {
	base := set * l.assoc
	if n := int(l.fill[set]); n < l.assoc {
		return n // the first unused way
	}
	switch l.repl {
	case replPLRU:
		node := 1
		lo, hi := 0, l.assoc
		treeBits := l.plru[set]
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if treeBits&(1<<uint(node)) != 0 {
				node = node*2 + 1
				lo = mid
			} else {
				node = node * 2
				hi = mid
			}
		}
		return lo
	case replRandom:
		r, a := l.xorshift(), uint64(l.assoc)
		if a&(a-1) == 0 {
			return int(r & (a - 1)) // r % a, without the divide
		}
		return int(r % a)
	default:
		victim := 0
		for w := 1; w < l.assoc; w++ {
			if l.lru[base+w] < l.lru[base+victim] {
				victim = w
			}
		}
		return victim
	}
}

// lookup finds block in the main array: the index of its line in lines and
// its set. On a miss it returns the block's set and idx -1.
func (l *Level) lookup(block uint64) (idx, set int, ok bool) {
	p := l.pred.at(block)
	if l.lines[p.idx].matches(block) {
		return int(p.idx), int(p.set), true
	}
	set = l.index(block)
	base := set * l.assoc
	for w, ln := range l.lines[base : base+int(l.fill[set])] {
		if ln.matches(block) {
			*p = wayHint{int32(base + w), int32(set)}
			return base + w, set, true
		}
	}
	return -1, set, false
}

// victimLookup checks the victim buffer; on hit the entry is removed and
// returned for reinsertion into the main array.
func (l *Level) victimLookup(block uint64) (line, bool) {
	for i := range l.victim {
		if l.victim[i].matches(block) {
			ln := l.victim[i]
			l.victim[i] &^= lineValid
			return ln, true
		}
	}
	return 0, false
}

// victimInsert puts ln into the victim buffer: into its first empty entry,
// or else over the entry inserted longest ago. Every valid entry was
// inserted since Reset (which empties the buffer), so the stamps of a full
// buffer are all this simulation's and order it totally.
func (l *Level) victimInsert(ln line) {
	if len(l.victim) == 0 || !ln.valid() {
		return
	}
	oldest := 0
	for i := range l.victim {
		if !l.victim[i].valid() {
			oldest = i
			break
		}
		if l.victimAge[i] < l.victimAge[oldest] {
			oldest = i
		}
	}
	l.victimTick++
	l.victim[oldest] = ln
	l.victimAge[oldest] = l.victimTick
}

// portDelay models access-port bandwidth: the (Ports+1)-th access in the
// same cycle slips to the next cycle.
func (l *Level) portDelay(now uint64) uint64 {
	if now != l.portCycle {
		l.portCycle = now
		l.portsUsed = 0
	}
	l.portsUsed++
	if l.portsUsed <= l.cfg.Ports {
		return 0
	}
	d := uint64((l.portsUsed - 1) / l.cfg.Ports)
	l.stats.PortStalls += d
	return d
}

// insert places a block, evicting as needed (writebacks are counted, not
// charged to the demand access). It returns tapeEvictWB when the evicted
// line was written back to the next level — the one decision of an insert
// that has a timing consequence — and 0 otherwise.
// set is the block's set, as lookup returned it.
func (l *Level) insert(now uint64, pc uint64, block uint64, set int, dirty, prefetched bool) (wb byte) {
	way := l.victimWay(set)
	base := set * l.assoc
	if way < int(l.fill[set]) {
		old := l.lines[base+way]
		l.stats.Evictions++
		if old.dirty() && l.cfg.WriteBack {
			l.stats.Writebacks++
			l.next.BackAccess(now, pc, old.tag()<<l.lineBits, true, true)
			wb = tapeEvictWB
		}
		l.victimInsert(old)
	} else {
		l.fill[set]++
	}
	idx := base + way
	l.lines[idx] = newLine(block, dirty, prefetched)
	*l.pred.at(block) = wayHint{int32(idx), int32(set)}
	l.touch(set, idx)
	return wb
}

// BackAccess services an access — a demand one when pf is false — and
// returns its latency and source level. It implements Backend, so levels
// can stack.
func (l *Level) BackAccess(now uint64, pc, addr uint64, write, pf bool) AccessResult {
	if l.rec != nil {
		return l.accessRecorded(now, pc, addr, write, pf)
	}
	res, _ := l.accessLive(now, pc, addr, write, pf)
	return res
}

// accessLive services one access. Its second result is the access's
// decision-tape entry (see tape.go): which way the access went, whether the
// line it displaced was written back and whether it issued prefetches. It
// is assembled from values the access computes anyway and dropped by every
// caller but accessRecorded.
func (l *Level) accessLive(now uint64, pc, addr uint64, write, pf bool) (AccessResult, byte) {
	block := l.block(addr)
	l.stats.Accesses++
	if write {
		l.stats.Writes++
	} else {
		l.stats.Reads++
	}
	lat := l.hitLat + l.portDelay(now)

	idx, set, hit := l.lookup(block)
	if hit {
		l.stats.Hits++
		ln := &l.lines[idx]
		if ln.prefetched() {
			l.stats.PrefetchUseful++
			*ln &^= linePrefetched
		}
		if write {
			if l.cfg.WriteBack {
				*ln |= lineDirty
			} else {
				l.next.BackAccess(now+lat, pc, addr, true, true) // write-through traffic
			}
		}
		l.touch(set, idx)
		entry := byte(tapeHit)
		if !pf {
			entry |= l.runPrefetcher(now, pc, block, false)
		}
		return AccessResult{Latency: lat, Level: l.levelID}, entry
	}

	// Victim buffer probe.
	if ln, ok := l.victimLookup(block); ok {
		l.stats.Hits++
		l.stats.VictimHits++
		lat++ // extra cycle for the side buffer
		dirty := ln.dirty()
		if write {
			dirty = dirty || l.cfg.WriteBack
			if !l.cfg.WriteBack {
				l.next.BackAccess(now+lat, pc, addr, true, true)
			}
		}
		entry := tapeVictimHit | l.insert(now, pc, block, set, dirty, false)
		if !pf {
			entry |= l.runPrefetcher(now, pc, block, false)
		}
		return AccessResult{Latency: lat, Level: l.levelID}, entry
	}

	// Miss.
	l.stats.Misses++
	allocate := !write || l.cfg.WriteAllocate
	res := l.next.BackAccess(now+lat, pc, addr, write && !allocate, pf)
	total := lat + res.Latency
	entry := byte(tapeMiss)
	if allocate {
		entry |= l.insert(now, pc, block, set, write && l.cfg.WriteBack, pf)
		if write && !l.cfg.WriteBack {
			l.next.BackAccess(now+total, pc, addr, true, true)
		}
	}
	if !pf {
		entry |= l.runPrefetcher(now, pc, block, true)
	}
	return AccessResult{Latency: total, Level: res.Level}, entry
}

// runPrefetcher trains the prefetcher on a demand access and issues any
// requested prefetches into this level. It returns tapePrefetched when it
// issued at least one (0 otherwise), for the access's tape entry.
func (l *Level) runPrefetcher(now uint64, pc, block uint64, miss bool) byte {
	if l.pfNone || l.inPrefetch {
		return 0
	}
	targets := l.pf.Observe(pc, block<<l.lineBits, miss)
	if len(targets) == 0 {
		return 0
	}
	// targets aliases the prefetcher's scratch array (see
	// prefetch.Prefetcher); inPrefetch keeps the accesses below from
	// reaching Observe again before the loop is done with it.
	l.inPrefetch = true
	issued, countSlot := byte(0), 0
	for _, t := range targets {
		tb := l.block(t)
		_, set, ok := l.lookup(tb)
		if ok {
			continue
		}
		l.stats.PrefetchIssued++
		if issued == 0 {
			countSlot = l.rec.reserve() // known only after the loop
		}
		issued++
		l.next.BackAccess(now, pc, t, false, true)
		// The write-back decision goes on the tape before the write-back.
		wbSlot := l.rec.reserve()
		l.rec.set(wbSlot, l.insert(now, pc, tb, set, false, true))
	}
	l.inPrefetch = false
	if issued == 0 {
		return 0
	}
	l.rec.set(countSlot, issued)
	return tapePrefetched
}
