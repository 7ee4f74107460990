package cache

import (
	"math/rand"
	"slices"
	"testing"

	"racesim/internal/dram"
	"racesim/internal/prefetch"
)

// tapeTestConfigs returns hierarchies that between them take every branch
// of Level.accessLive and replayAccess: write-back and write-through,
// allocating and not, victim buffers, every prefetcher, hash and
// replacement kind, zero-fill pages on and off. The caches are tiny so a
// few thousand accesses evict, write back and hit the victim buffers.
func tapeTestConfigs() []HierarchyConfig {
	level := func(name string, kb, assoc, lat int) Config {
		return Config{Name: name, SizeKB: kb, Assoc: assoc, LineSize: 64, HitLatency: lat, Hash: HashMask,
			Repl: ReplLRU, MSHRs: 4, Ports: 1, WriteBack: true, WriteAllocate: true, Prefetch: prefetch.DefaultConfig()}
	}
	base := HierarchyConfig{
		L1I: level("L1I", 1, 2, 1), L1D: level("L1D", 1, 2, 2), L2: level("L2", 4, 4, 9),
		DRAM:        dram.Config{LatencyCycles: 100, BurstCycles: 4, QueueDepth: 8},
		ITLBEntries: 4, DTLBEntries: 4, TLBMissLatency: 20, PageBytes: 4096,
		ZeroFillOpt: true, ZeroFillLatency: 12,
	}
	pf := func(kind prefetch.Kind, degree int, onHit bool) prefetch.Config {
		return prefetch.Config{Kind: kind, Degree: degree, Distance: 1, TableEntries: 16, GHBEntries: 32, OnHit: onHit}
	}

	victims := base
	victims.L1D.VictimEntries, victims.L2.VictimEntries = 4, 4
	victims.L1D.Prefetch, victims.L2.Prefetch = pf(prefetch.KindNextLine, 2, true), pf(prefetch.KindStride, 4, false)
	victims.L1I.Prefetch = pf(prefetch.KindNextLine, 1, false)

	through := base // a write-through, no-write-allocate L1D in front of a victim-buffered L2
	through.L1D.WriteBack, through.L1D.WriteAllocate = false, false
	through.L1D.Hash, through.L1D.Repl = HashXor, ReplPLRU
	through.L1D.Prefetch = pf(prefetch.KindStride, 2, true)
	through.L2.VictimEntries, through.L2.Prefetch = 2, pf(prefetch.KindGHB, 2, true)
	through.ZeroFillOpt = false

	throughAlloc := through // write-through but allocating, and a write-through L2 behind it
	throughAlloc.L1D.WriteAllocate = true
	throughAlloc.L1D.VictimEntries = 2
	throughAlloc.L2.WriteBack = false
	throughAlloc.L2.Hash, throughAlloc.L2.Repl = HashMersenne, ReplRandom
	throughAlloc.ZeroFillOpt = true

	spatial := base // the widest prefetch bursts there are: 32 targets an access
	spatial.L1D.Prefetch, spatial.L2.Prefetch = pf(prefetch.KindSpatial, 16, true), pf(prefetch.KindSpatial, 8, false)
	spatial.L1D.Repl, spatial.L2.Hash = ReplRandom, HashXor

	return []HierarchyConfig{base, victims, through, throughAlloc, spatial}
}

// tapeOp is one call a core model makes on its hierarchy.
type tapeOp struct {
	kind     byte // 'F'etch, 'L'oad (Probe, then Load), 'S'tore
	pc, addr uint64
}

// tapeOps returns a deterministic access sequence mixing what the
// hierarchy's mechanisms respond to: sequential and strided streams for the
// prefetchers, a small hot set for hits, conflicting lines for evictions
// and the victim buffers, stores for dirty lines and write-backs, and
// read-only pages for the zero-fill optimization.
func tapeOps(n int, seed int64) []tapeOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]tapeOp, 0, n)
	stream, strided, pc := uint64(0x100000), uint64(0x400000), uint64(0x8000)
	for len(ops) < n {
		pc += 4
		if rng.Intn(16) == 0 {
			pc = 0x8000 + uint64(rng.Intn(64))*256 // a taken branch
		}
		if pc%64 == 0 || rng.Intn(8) == 0 {
			ops = append(ops, tapeOp{kind: 'F', pc: pc})
		}
		kind := byte('L')
		if rng.Intn(3) == 0 {
			kind = 'S'
		}
		var addr uint64
		switch rng.Intn(5) {
		case 0:
			stream += 16
			addr = stream
		case 1:
			strided += 192
			addr = strided
		case 2:
			addr = 0x200000 + uint64(rng.Intn(24))*64 // hot set
		case 3:
			addr = 0x300000 + uint64(rng.Intn(8))*1024 // same sets, different tags
		default:
			addr, kind = 0x900000+uint64(rng.Intn(1<<16)), 'L' // never-written pages
		}
		ops = append(ops, tapeOp{kind: kind, pc: pc &^ 0xf, addr: addr})
	}
	return ops
}

// drive replays ops on h the way a core model does — issue cycles depend
// on the latencies earlier accesses returned — and returns everything the
// hierarchy answered.
func drive(h *Hierarchy, ops []tapeOp) []uint64 {
	out := make([]uint64, 0, 3*len(ops))
	now := uint64(0)
	for _, op := range ops {
		var res AccessResult
		switch op.kind {
		case 'F':
			res = h.Fetch(now, op.pc)
		case 'L':
			if h.Probe(op.addr) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
				now += 2
			}
			res = h.Load(now, op.pc, op.addr)
		default:
			res = h.Store(now, op.pc, op.addr)
		}
		out = append(out, res.Latency, uint64(res.Level))
		now += res.Latency / 8 // several accesses to a level in one cycle, sometimes
	}
	return out
}

// retimed returns cfg with every field changed that the replay
// interpreter reads and no decision does: each level's hit latency, tag
// and data order, ports and MSHRs, the DRAM timing, the TLB miss latency
// and the zero-fill latency.
func retimed(cfg HierarchyConfig, rng *rand.Rand) HierarchyConfig {
	for _, l := range []*Config{&cfg.L1I, &cfg.L1D, &cfg.L2} {
		l.HitLatency = 1 + rng.Intn(20)
		l.TagDataSerial = rng.Intn(2) == 0
		l.Ports = 1 + rng.Intn(3)
		l.MSHRs = 1 + rng.Intn(16)
	}
	cfg.DRAM = dram.Config{LatencyCycles: 50 + rng.Intn(300), BurstCycles: 1 + rng.Intn(16), QueueDepth: 1 + rng.Intn(32)}
	cfg.TLBMissLatency = rng.Intn(60)
	cfg.ZeroFillLatency = 1 + rng.Intn(60)
	return cfg
}

// record runs ops on a recording hierarchy of cfg and returns its answers
// and its tape.
func record(t *testing.T, h *Hierarchy, cfg HierarchyConfig, ops []tapeOp) ([]uint64, HierarchyStats, *Tape) {
	t.Helper()
	if err := h.Record(cfg); err != nil {
		t.Fatal(err)
	}
	out := drive(h, ops)
	tape := h.Tape()
	if tape == nil {
		t.Fatal("a recording hierarchy returned no tape")
	}
	return out, h.Stats(), tape
}

// TestTapeReplayMatchesLive is the differential test of the replay
// interpreter (replayAccess) against the model it mirrors
// (Level.accessLive): for each test hierarchy, a tape recorded under one
// timing is replayed under other timings, and every answer — each access's
// latency and source level, each probe, every statistic including the
// timing-dependent PortStalls and DRAM counters — must equal what a live
// hierarchy of that timing gives. Recording itself must not change a
// result either. One Hierarchy value serves every run in turn, live,
// recording and replaying, as a recycled lane's does.
func TestTapeReplayMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := tapeOps(6000, 1)
	recycled := new(Hierarchy)
	for ci, cfg := range tapeTestConfigs() {
		want, wantStats := func() ([]uint64, HierarchyStats) {
			h, err := NewHierarchy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return drive(h, ops), h.Stats()
		}()
		got, gotStats, tape := record(t, recycled, cfg, ops)
		if !slices.Equal(got, want) || gotStats != wantStats {
			t.Fatalf("config %d: a recording hierarchy answers differently from a live one\n rec  %+v\n live %+v", ci, gotStats, wantStats)
		}
		if s := wantStats; s.L1D.Evictions == 0 || s.L1D.Writes == 0 || s.L2.Misses == 0 || s.DTLBMiss == 0 {
			t.Fatalf("config %d: the access sequence does not stress the hierarchy: %+v", ci, s)
		}
		for trial := 0; trial < 4; trial++ {
			timing := cfg
			if trial > 0 {
				timing = retimed(cfg, rng)
			}
			live, err := NewHierarchy(timing)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats := drive(live, ops), live.Stats()

			if err := recycled.Replay(timing, tape); err != nil {
				t.Fatal(err)
			}
			got, gotStats := drive(recycled, ops), recycled.Stats()
			if err := recycled.ReplayErr(); err != nil {
				t.Errorf("config %d trial %d: %v", ci, trial, err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("config %d trial %d: replayed answers differ from the live hierarchy's", ci, trial)
			}
			if gotStats != wantStats {
				t.Errorf("config %d trial %d: statistics differ\n replay %+v\n live   %+v", ci, trial, gotStats, wantStats)
			}
			if recycled.Tape() != nil {
				t.Error("a replaying hierarchy returned a tape")
			}
		}
		// And back to live on the same value: nothing of the tape lingers.
		if err := recycled.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if got := drive(recycled, ops); !slices.Equal(got, want) || recycled.Stats() != wantStats {
			t.Errorf("config %d: a hierarchy reset after replaying differs from a new one", ci)
		}
		if recycled.Tape() != nil || recycled.ReplayErr() != nil {
			t.Error("a live hierarchy has a tape or a replay error")
		}
	}
}

// TestReplayDesyncIsAnError: a tape is good for the access sequence it was
// recorded over and nothing else. Driving a replaying hierarchy with fewer
// accesses, more accesses, or the same number of different ones (another
// fetch granularity, another trace) must be reported, never answered with
// whatever the tape happens to hold.
func TestReplayDesyncIsAnError(t *testing.T) {
	cfg := tapeTestConfigs()[1]
	ops := tapeOps(3000, 3)
	h := new(Hierarchy)
	_, _, tape := record(t, h, cfg, ops)

	replay := func(ops []tapeOp) error {
		if err := h.Replay(cfg, tape); err != nil {
			t.Fatal(err)
		}
		drive(h, ops)
		return h.ReplayErr()
	}
	if err := replay(ops); err != nil {
		t.Fatalf("the recorded sequence itself: %v", err)
	}
	if err := replay(ops[:len(ops)-7]); err == nil {
		t.Error("a replay that stopped early reported no error")
	}
	if err := replay(append(slices.Clone(ops), ops[:40]...)); err == nil {
		t.Error("a replay that ran past its tape reported no error")
	}
	// The same data accesses with every other instruction fetch dropped —
	// what a core with twice the fetch line size would issue.
	var coarser []tapeOp
	fetches := 0
	for _, op := range ops {
		if op.kind == 'F' {
			if fetches++; fetches%2 == 0 {
				continue
			}
		}
		coarser = append(coarser, op)
	}
	if err := replay(coarser); err == nil {
		t.Error("a replay under another fetch granularity reported no error")
	}
	if err := replay(tapeOps(3000, 4)); err == nil {
		t.Error("a replay of another access sequence reported no error")
	}
}
