package cache

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"racesim/internal/dram"
	"racesim/internal/prefetch"
)

// perLevel returns the dotted paths of the given Config fields in each of
// the three levels of a HierarchyConfig.
func perLevel(fields ...string) []string {
	var out []string
	for _, lvl := range []string{"L1I", "L1D", "L2"} {
		for _, f := range fields {
			out = append(out, lvl+"."+f)
		}
	}
	return out
}

// Every leaf field of HierarchyConfig (through Config, prefetch.Config and
// dram.Config) is in exactly one of these two lists. timingOnlyFields are
// the ones HierarchyConfig.Functional zeroes: they move when an access
// completes, never what it finds.
//
// MSHRs is a special case worth knowing about: Config.Validate checks it
// and nothing reads it — the core models bound outstanding misses with
// their own MSHRs parameter (core.Config.MSHRs, the tunable
// "l1d.mshrs") — so the tunable "l2.mshrs" is a dead parameter of the
// search space. It is classified timing-only because that is what it
// would be if a model honoured it, and left in the search space because
// removing it changes race sampling and every pinned output
// (docs/validation.md).
var (
	timingOnlyFields = append(perLevel("HitLatency", "TagDataSerial", "MSHRs", "Ports"),
		"DRAM.LatencyCycles", "DRAM.BurstCycles", "DRAM.QueueDepth",
		"TLBMissLatency", "ZeroFillLatency")
	functionalFields = append(perLevel("Name", "SizeKB", "Assoc", "LineSize", "Hash", "Repl",
		"WriteBack", "WriteAllocate", "VictimEntries",
		"Prefetch.Kind", "Prefetch.Degree", "Prefetch.Distance", "Prefetch.TableEntries",
		"Prefetch.GHBEntries", "Prefetch.OnHit"),
		"ITLBEntries", "DTLBEntries", "PageBytes", "ZeroFillOpt")
)

// leafFields returns the addressable leaf fields of struct v by dotted path.
func leafFields(t *testing.T, v reflect.Value, prefix string, out map[string]reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, path := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			leafFields(t, f, path+".", out)
		case reflect.Bool, reflect.Int, reflect.String:
			out[path] = f
		default:
			t.Fatalf("%s is a %s: decide whether FunctionalKey can still be compared with == and how this test should change it", path, f.Kind())
		}
	}
}

// TestFunctionalKeyClassifiesEveryField keeps the tape key from going
// stale silently: a field added to any of the four config structs is in
// neither list and stops this test until someone decides whether it shapes
// the hierarchy's decisions (functional: it must move the key) or only
// their timing (timing-only: Functional must zero it). The lists and
// Functional are then checked against each other field by field.
func TestFunctionalKeyClassifiesEveryField(t *testing.T) {
	var cfg HierarchyConfig
	leaves := map[string]reflect.Value{}
	leafFields(t, reflect.ValueOf(&cfg).Elem(), "", leaves)

	for path := range leaves {
		fn, tm := slices.Contains(functionalFields, path), slices.Contains(timingOnlyFields, path)
		switch {
		case fn && tm:
			t.Errorf("%s is listed as both functional and timing-only", path)
		case !fn && !tm:
			t.Errorf("%s is in neither list: a tape recorded under one value of it may be replayed under another. "+
				"If it can change what an access finds, add it to functionalFields; if it only changes when, "+
				"add it to timingOnlyFields and zero it in HierarchyConfig.Functional", path)
		}
	}
	for _, path := range slices.Concat(functionalFields, timingOnlyFields) {
		if _, ok := leaves[path]; !ok {
			t.Errorf("%s is listed but is not a field of HierarchyConfig", path)
		}
	}

	base := cfg.Functional()
	for path, f := range leaves {
		old := reflect.New(f.Type()).Elem()
		old.Set(f)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(7)
		case reflect.String:
			f.SetString("x")
		}
		moved := cfg.Functional() != base
		f.Set(old)
		if want := slices.Contains(functionalFields, path); moved != want {
			t.Errorf("%s: changing it moves the functional key = %v, want %v", path, moved, want)
		}
	}
}

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

// retimed returns cfg with every timing-only field changed.
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

// TestTimingOnlyFieldsLeaveTapeUnchanged is the behavioural half of the
// field classification: for each field listed as timing-only, a hierarchy
// that differs from the base in that field alone records the same tape,
// byte for byte, with the same functional totals — so replaying the base's
// tape under it is replaying its own.
func TestTimingOnlyFieldsLeaveTapeUnchanged(t *testing.T) {
	ops := tapeOps(4000, 2)
	h := new(Hierarchy)
	for ci, base := range tapeTestConfigs() {
		_, _, want := record(t, h, base, ops)
		for _, path := range timingOnlyFields {
			cfg := base
			f := reflect.ValueOf(&cfg).Elem()
			for _, name := range strings.Split(path, ".") {
				f = f.FieldByName(name)
			}
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int:
				f.SetInt(f.Int() + 3)
			}
			_, _, got := record(t, h, cfg, ops)
			if !bytes.Equal(got.dec, want.dec) {
				t.Errorf("config %d: changing %s changed the recorded decisions: it is not timing-only", ci, path)
			}
			if got.stats != want.stats {
				t.Errorf("config %d: changing %s changed the functional totals\n got  %+v\n want %+v", ci, path, got.stats, want.stats)
			}
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
