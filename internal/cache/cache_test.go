package cache

import (
	"testing"
	"testing/quick"

	"racesim/internal/dram"
	"racesim/internal/prefetch"
)

// fixedBackend returns a constant latency, for testing a level in
// isolation.
type fixedBackend struct {
	lat   uint64
	calls int
}

func (f *fixedBackend) BackAccess(now uint64, pc, addr uint64, write, pf bool) AccessResult {
	f.calls++
	return AccessResult{Latency: f.lat, Level: 3}
}

func l1Config() Config {
	return Config{
		Name: "l1d", SizeKB: 32, Assoc: 4, LineSize: 64,
		HitLatency: 3, Hash: HashMask, Repl: ReplLRU,
		MSHRs: 4, Ports: 1, WriteBack: true, WriteAllocate: true,
		Prefetch: prefetch.DefaultConfig(),
	}
}

func mkLevel(t *testing.T, cfg Config, back Backend) *Level {
	t.Helper()
	l := new(Level)
	if err := l.Reset(cfg, 1, back); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestConfigValidate(t *testing.T) {
	if err := l1Config().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := l1Config()
	bad.LineSize = 48
	if bad.Validate() == nil {
		t.Error("non-power-of-two line size accepted")
	}
	bad = l1Config()
	bad.Assoc = 7 // 512 lines not divisible by 7
	if bad.Validate() == nil {
		t.Error("bad associativity accepted")
	}
	bad = l1Config()
	bad.Repl = ReplPLRU
	bad.Assoc = 4
	if err := bad.Validate(); err != nil {
		t.Errorf("PLRU with power-of-two assoc rejected: %v", err)
	}
	bad.Assoc = 8 // 512 lines / 8 = 64 sets: fine
	if err := bad.Validate(); err != nil {
		t.Errorf("PLRU assoc 8 rejected: %v", err)
	}
}

func TestHitAfterMiss(t *testing.T) {
	back := &fixedBackend{lat: 100}
	l := mkLevel(t, l1Config(), back)
	r1 := l.BackAccess(0, 0x100, 0x4000, false, false)
	if r1.Level != 3 || r1.Latency != 103 {
		t.Errorf("first access: %+v, want miss with latency 103", r1)
	}
	r2 := l.BackAccess(10, 0x100, 0x4000, false, false)
	if r2.Level != 1 || r2.Latency != 3 {
		t.Errorf("second access: %+v, want L1 hit latency 3", r2)
	}
	s := l.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTagDataSerialAddsCycle(t *testing.T) {
	cfg := l1Config()
	cfg.TagDataSerial = true
	l := mkLevel(t, cfg, &fixedBackend{lat: 100})
	l.BackAccess(0, 0, 0x4000, false, false)
	r := l.BackAccess(10, 0, 0x4000, false, false)
	if r.Latency != 4 {
		t.Errorf("serial hit latency = %d, want 4", r.Latency)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := l1Config()
	cfg.SizeKB = 1 // 16 lines, 4 ways, 4 sets
	l := mkLevel(t, cfg, &fixedBackend{lat: 100})
	// Fill set 0 (addresses with identical index bits), then one more.
	setStride := uint64(4 * 64) // sets * line
	for i := 0; i < 5; i++ {
		l.BackAccess(uint64(i), 0, uint64(i)*setStride, false, false)
	}
	// First line must have been evicted (LRU).
	r := l.BackAccess(10, 0, 0, false, false)
	if r.Level != 3 {
		t.Error("LRU victim still resident after overfill")
	}
	// Line 2 was more recently used than lines 0 and 1: still resident.
	r = l.BackAccess(11, 0, 2*setStride, false, false)
	if r.Level != 1 {
		t.Error("recently used line evicted")
	}
}

func TestWriteBackGeneratesWriteback(t *testing.T) {
	cfg := l1Config()
	cfg.SizeKB = 1
	back := &fixedBackend{lat: 100}
	l := mkLevel(t, cfg, back)
	setStride := uint64(4 * 64)
	l.BackAccess(0, 0, 0, true, false) // dirty line
	for i := 1; i <= 4; i++ {
		l.BackAccess(uint64(i), 0, uint64(i)*setStride, false, false) // evict it
	}
	if wb := l.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
}

func TestWriteThroughForwardsStores(t *testing.T) {
	cfg := l1Config()
	cfg.WriteBack = false
	back := &fixedBackend{lat: 100}
	l := mkLevel(t, cfg, back)
	l.BackAccess(0, 0, 0x4000, false, false) // fill
	calls := back.calls
	l.BackAccess(1, 0, 0x4000, true, false) // store hit: must forward
	if back.calls != calls+1 {
		t.Error("write-through store hit did not forward to backend")
	}
	if l.Stats().Writebacks != 0 {
		t.Error("write-through should not count writebacks")
	}
}

func TestNoWriteAllocate(t *testing.T) {
	cfg := l1Config()
	cfg.WriteBack = false
	cfg.WriteAllocate = false
	l := mkLevel(t, cfg, &fixedBackend{lat: 100})
	l.BackAccess(0, 0, 0x4000, true, false) // store miss: no allocation
	r := l.BackAccess(1, 0, 0x4000, false, false)
	if r.Level != 3 {
		t.Error("store miss allocated a line despite no-write-allocate")
	}
}

func TestVictimCacheCatchesConflicts(t *testing.T) {
	cfg := l1Config()
	cfg.SizeKB = 1 // 16 lines
	cfg.Assoc = 1  // direct-mapped, 16 sets: conflict-prone
	cfg.VictimEntries = 4
	l := mkLevel(t, cfg, &fixedBackend{lat: 100})
	setStride := uint64(16 * 64)
	// Two conflicting lines ping-pong: victim cache should catch them.
	for i := 0; i < 20; i++ {
		l.BackAccess(uint64(i), 0, uint64(i%2)*setStride, false, false)
	}
	s := l.Stats()
	if s.VictimHits == 0 {
		t.Errorf("victim cache never hit: %+v", s)
	}
	// Without the victim cache, every access after warmup misses.
	cfg.VictimEntries = 0
	l2 := mkLevel(t, cfg, &fixedBackend{lat: 100})
	for i := 0; i < 20; i++ {
		l2.BackAccess(uint64(i), 0, uint64(i%2)*setStride, false, false)
	}
	if l2.Stats().Misses <= s.Misses {
		t.Errorf("victim cache did not reduce misses: %d vs %d", s.Misses, l2.Stats().Misses)
	}
}

func TestHashKindsChangeConflictBehaviour(t *testing.T) {
	// Addresses striding by exactly sets*linesize conflict under mask
	// hashing but spread out under xor hashing.
	run := func(h HashKind) uint64 {
		cfg := l1Config()
		cfg.SizeKB = 4 // 64 lines, 4 ways, 16 sets
		cfg.Hash = h
		l := mkLevel(t, cfg, &fixedBackend{lat: 100})
		stride := uint64(16 * 64)
		for r := 0; r < 4; r++ {
			for i := 0; i < 8; i++ { // 8 lines, same mask set
				l.BackAccess(uint64(r*8+i), 0, uint64(i)*stride, false, false)
			}
		}
		return l.Stats().Misses
	}
	maskMiss := run(HashMask)
	xorMiss := run(HashXor)
	if xorMiss >= maskMiss {
		t.Errorf("xor hashing (%d misses) should beat mask (%d) on power-of-two strides", xorMiss, maskMiss)
	}
	mers := run(HashMersenne)
	if mers >= maskMiss {
		t.Errorf("mersenne hashing (%d misses) should beat mask (%d) on power-of-two strides", mers, maskMiss)
	}
}

// TestMersenneIndexIsTheModulo: the Mersenne hash's set is block mod
// sets-1, computed by end-around-carry folds instead of a divide; it must
// be exactly the modulo for every exponent and every block, the edges
// (0, the modulus, one past it, all ones) included.
func TestMersenneIndexIsTheModulo(t *testing.T) {
	if got := mersenneMod(12345, 0); got != 0 {
		t.Errorf("mod 2^0-1 of 12345 = %d, want 0 (one set)", got)
	}
	for k := uint(1); k < 32; k++ {
		m := uint64(1)<<k - 1
		check := func(x uint64) bool { return mersenneMod(x, k) == x%m }
		for _, x := range []uint64{0, 1, m - 1, m, m + 1, 2 * m, 2*m + 1, ^uint64(0), ^uint64(0) - m} {
			if !check(x) {
				t.Fatalf("mod 2^%d-1 of %d = %d, want %d", k, x, mersenneMod(x, k), x%m)
			}
		}
		if err := quick.Check(check, nil); err != nil {
			t.Fatalf("mod 2^%d-1: %v", k, err)
		}
	}
	cfg := l1Config()
	cfg.Hash = HashMersenne
	for _, kb := range []int{4, 32, 512} {
		cfg.SizeKB = kb
		l := mkLevel(t, cfg, &fixedBackend{})
		for _, block := range []uint64{0, 1, 63, 64, 1 << 20, 0xdeadbeef, ^uint64(0)} {
			if got, want := l.index(block), int(block%uint64(l.sets-1)); got != want {
				t.Errorf("%d KB: block %#x indexes set %d, want %d", kb, block, got, want)
			}
		}
	}
}

func TestReplacementPolicies(t *testing.T) {
	for _, repl := range ReplKinds {
		cfg := l1Config()
		cfg.Repl = repl
		l := mkLevel(t, cfg, &fixedBackend{lat: 100})
		for i := 0; i < 1000; i++ {
			l.BackAccess(uint64(i), 0, uint64(i%8)*64, false, false)
		}
		s := l.Stats()
		if s.Hits < 900 {
			t.Errorf("%s: %d hits of 1000 on a tiny working set", repl, s.Hits)
		}
	}
}

func TestPrefetcherReducesStreamMisses(t *testing.T) {
	run := func(pf prefetch.Config) Stats {
		cfg := l1Config()
		cfg.Prefetch = pf
		l := mkLevel(t, cfg, &fixedBackend{lat: 100})
		for i := 0; i < 512; i++ {
			l.BackAccess(uint64(i), 0x100, uint64(0x10000+i*64), false, false)
		}
		return l.Stats()
	}
	off := run(prefetch.DefaultConfig())
	on := run(prefetch.Config{Kind: prefetch.KindStride, Degree: 2, Distance: 4, TableEntries: 64})
	if on.Misses >= off.Misses {
		t.Errorf("stride prefetcher did not reduce misses: %d vs %d", on.Misses, off.Misses)
	}
	if on.PrefetchIssued == 0 || on.PrefetchUseful == 0 {
		t.Errorf("prefetch stats empty: %+v", on)
	}
}

func TestPortContention(t *testing.T) {
	cfg := l1Config()
	cfg.Ports = 1
	l := mkLevel(t, cfg, &fixedBackend{lat: 100})
	l.BackAccess(5, 0, 0x4000, false, false)
	l.BackAccess(6, 0, 0x4040, false, false)
	// Two accesses in the same cycle: the second pays a port stall.
	a := l.BackAccess(7, 0, 0x4000, false, false)
	b := l.BackAccess(7, 0, 0x4040, false, false)
	if b.Latency != a.Latency+1 {
		t.Errorf("same-cycle second access latency %d, want %d", b.Latency, a.Latency+1)
	}
	if l.Stats().PortStalls == 0 {
		t.Error("port stalls not counted")
	}
}

func TestHierarchyEndToEnd(t *testing.T) {
	h := mkHierarchy(t, false)
	// Cold load goes to memory.
	r := h.Load(0, 0x100, 0x40000)
	if r.Level != 3 {
		t.Errorf("cold load level = %d, want 3", r.Level)
	}
	// Immediate reload hits L1.
	r = h.Load(1, 0x100, 0x40000)
	if r.Level != 1 {
		t.Errorf("warm load level = %d, want 1", r.Level)
	}
	// A line evicted from L1 but present in L2 hits L2.
	s := h.Stats()
	if s.L1D.Accesses == 0 || s.L2.Accesses == 0 || s.DRAM.Reads == 0 {
		t.Errorf("stats not flowing: %+v", s)
	}
}

func mkHierarchy(t *testing.T, zeroFill bool) *Hierarchy {
	t.Helper()
	l2 := Config{
		Name: "l2", SizeKB: 512, Assoc: 16, LineSize: 64,
		HitLatency: 12, Hash: HashMask, Repl: ReplLRU,
		MSHRs: 8, Ports: 1, WriteBack: true, WriteAllocate: true,
		Prefetch: prefetch.DefaultConfig(),
	}
	l1i := l1Config()
	l1i.Name = "l1i"
	cfg := HierarchyConfig{
		L1I: l1i, L1D: l1Config(), L2: l2, DRAM: dram.DefaultConfig(),
		ITLBEntries: 16, DTLBEntries: 16, TLBMissLatency: 20, PageBytes: 4096,
		ZeroFillOpt: zeroFill, ZeroFillLatency: 48,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestL2CatchesL1Evictions(t *testing.T) {
	h := mkHierarchy(t, false)
	// Touch 1024 distinct lines (64KB, exceeds 32KB L1 but fits 512KB L2).
	for i := 0; i < 1024; i++ {
		h.Load(uint64(i), 0x100, uint64(0x100000+i*64))
	}
	// Re-touch the first line: L1 evicted it, L2 still has it.
	r := h.Load(5000, 0x100, 0x100000)
	if r.Level != 2 {
		t.Errorf("re-touch level = %d, want 2 (L2 hit)", r.Level)
	}
}

func TestTLBMissAddsLatency(t *testing.T) {
	h := mkHierarchy(t, false)
	r1 := h.Load(0, 0x100, 0x40000) // cold: TLB miss too
	h.Load(1, 0x100, 0x40000)
	// New page, line in L2? No - different address. Compare same access
	// warm vs cold TLB by touching many pages to evict the first.
	if r1.Latency == 0 {
		t.Fatal("zero latency")
	}
	s := h.Stats()
	if s.DTLBMiss == 0 {
		t.Error("no DTLB misses recorded")
	}
}

func TestZeroFillOptimization(t *testing.T) {
	// Sequential cold reads over an untouched (uninitialized) buffer: with
	// the optimization, later pages are serviced without DRAM latency.
	run := func(zf bool) uint64 {
		h := mkHierarchy(t, zf)
		var total uint64
		for i := 0; i < 512; i++ {
			total += h.Load(uint64(i*10), 0x100, uint64(0x200000+i*64)).Latency
		}
		return total
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("zero-fill did not reduce cold-read cost: %d vs %d", with, without)
	}
}

func TestFetchUsesICache(t *testing.T) {
	h := mkHierarchy(t, false)
	h.Fetch(0, 0x1000)
	r := h.Fetch(1, 0x1000)
	if r.Level != 1 {
		t.Errorf("warm fetch level = %d, want 1", r.Level)
	}
	if h.Stats().L1I.Accesses != 2 {
		t.Errorf("L1I accesses = %d, want 2", h.Stats().L1I.Accesses)
	}
}

// Property: any sequence of accesses keeps at most one copy of a block per
// set, fills a set's ways in order (ways [0, fill) are valid, the rest
// untouched — what lets Reset skip clearing the arrays) and keeps the
// recency stamps a strict order over the valid ways (LRU invariant: every
// valid way carries a distinct nonzero stamp no newer than the level's
// tick).
func TestLRUPermutationInvariant(t *testing.T) {
	cfg := l1Config()
	cfg.SizeKB = 1
	l := mkLevel(t, cfg, &fixedBackend{lat: 50})
	f := func(addrs []uint16) bool {
		for i, a := range addrs {
			l.BackAccess(uint64(i), 0, uint64(a)*8, i%3 == 0, false)
		}
		for set := 0; set < l.sets; set++ {
			seen := map[uint64]bool{}
			for w := 0; w < l.assoc; w++ {
				st := l.lru[set*l.assoc+w]
				if valid := l.lines[set*l.assoc+w].valid(); valid != (w < int(l.fill[set])) {
					return false
				} else if !valid {
					if st != 0 {
						return false
					}
					continue
				}
				if st == 0 || st > l.lruTick || seen[st] {
					return false
				}
				seen[st] = true
			}
			// No duplicate tags among valid ways.
			tags := map[uint64]bool{}
			for w := 0; w < l.assoc; w++ {
				ln := l.lines[set*l.assoc+w]
				if ln.valid() {
					if tags[ln.tag()] {
						return false
					}
					tags[ln.tag()] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDRAMQueueing(t *testing.T) {
	d, err := dram.New(dram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := d.Access(100, false)
	second := d.Access(100, false) // same cycle: queues behind the first
	if second <= first {
		t.Errorf("second access latency %d should exceed first %d", second, first)
	}
	// Far apart: no queueing.
	third := d.Access(10000, false)
	if third != first {
		t.Errorf("idle access latency %d, want %d", third, first)
	}
	if d.Stats().Reads != 3 {
		t.Errorf("reads = %d", d.Stats().Reads)
	}
}

func TestDRAMQueueBound(t *testing.T) {
	cfg := dram.DefaultConfig()
	d, _ := dram.New(cfg)
	var maxLat uint64
	for i := 0; i < 1000; i++ {
		if l := d.Access(0, false); l > maxLat {
			maxLat = l
		}
	}
	bound := uint64(cfg.LatencyCycles + (cfg.QueueDepth+1)*cfg.BurstCycles)
	if maxLat > bound {
		t.Errorf("queueing latency %d exceeded bound %d", maxLat, bound)
	}
}
