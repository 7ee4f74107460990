package branch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"racesim/internal/isa"
)

func condBranch(pc, target uint64, taken bool) *isa.Inst {
	return &isa.Inst{PC: pc, Cls: isa.ClassBranch, Op: isa.OpBCC, Taken: taken, Target: target}
}

// access drives the unit with one decoded branch.
func access(u *Unit, in *isa.Inst) Outcome {
	return u.AccessOutcome(in.Cls, in.Op, in.PC, in.Target, in.Taken)
}

func mustUnit(t *testing.T, cfg Config) *Unit {
	t.Helper()
	u, err := NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BimodalEntries = 100 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two table accepted")
	}
	bad = good
	bad.Kind = "magic"
	if err := bad.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = good
	bad.BTBAssoc = 3
	bad.BTBEntries = 256
	if err := bad.Validate(); err == nil {
		t.Error("BTB entries not divisible by assoc accepted")
	}
	for _, k := range Kinds {
		c := DefaultConfig()
		c.Kind = k
		if err := c.Validate(); err != nil {
			t.Errorf("kind %s: %v", k, err)
		}
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	u := mustUnit(t, DefaultConfig())
	// Heavily taken branch: after warmup, nearly always predicted.
	for i := 0; i < 1000; i++ {
		access(u, condBranch(0x1000, 0x900, true))
	}
	s := u.Stats()
	if s.DirectionMiss > 4 {
		t.Errorf("bimodal missed %d times on an always-taken branch", s.DirectionMiss)
	}
}

func TestGShareLearnsPattern(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindGShare
	cfg.HistoryBits = 8
	u := mustUnit(t, cfg)
	// Period-4 pattern TTNT: gshare should learn it almost perfectly;
	// bimodal cannot.
	pattern := []bool{true, true, false, true}
	for i := 0; i < 4000; i++ {
		access(u, condBranch(0x2000, 0x1900, pattern[i%4]))
	}
	gshMiss := u.Stats().DirectionMiss

	cfgB := DefaultConfig()
	uB := mustUnit(t, cfgB)
	for i := 0; i < 4000; i++ {
		access(uB, condBranch(0x2000, 0x1900, pattern[i%4]))
	}
	bimMiss := uB.Stats().DirectionMiss
	if gshMiss >= bimMiss {
		t.Errorf("gshare (%d misses) should beat bimodal (%d) on a periodic pattern", gshMiss, bimMiss)
	}
	if float64(gshMiss) > 0.05*4000 {
		t.Errorf("gshare miss rate %.2f%% too high for a learnable pattern", float64(gshMiss)/40)
	}
}

func TestTournamentTracksBetterComponent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindTournament
	u := mustUnit(t, cfg)
	pattern := []bool{true, true, false, true}
	for i := 0; i < 4000; i++ {
		access(u, condBranch(0x2000, 0x1900, pattern[i%4]))
	}
	if miss := u.Stats().DirectionMiss; float64(miss) > 0.10*4000 {
		t.Errorf("tournament miss rate %.2f%% too high", float64(miss)/40)
	}
}

func TestStaticBackwardTaken(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindStatic
	u := mustUnit(t, cfg)
	// Backward taken loop branch: static predicts correctly.
	for i := 0; i < 100; i++ {
		access(u, condBranch(0x1000, 0x900, true))
	}
	if miss := u.Stats().DirectionMiss; miss != 0 {
		t.Errorf("static missed %d backward-taken branches", miss)
	}
	// Forward taken: static predicts not-taken, always wrong.
	u2 := mustUnit(t, cfg)
	for i := 0; i < 100; i++ {
		access(u2, condBranch(0x1000, 0x2000, true))
	}
	if miss := u2.Stats().DirectionMiss; miss != 100 {
		t.Errorf("static should miss all forward-taken, missed %d", miss)
	}
}

func TestBTBTargetMiss(t *testing.T) {
	u := mustUnit(t, DefaultConfig())
	// First taken encounter: direction may miss or BTB misses; afterwards
	// both direction and target hit.
	out := access(u, condBranch(0x3000, 0x2000, true))
	if !out.Mispredict && !out.TargetMiss {
		t.Error("first taken branch should pay some penalty")
	}
	for i := 0; i < 10; i++ {
		access(u, condBranch(0x3000, 0x2000, true))
	}
	out = access(u, condBranch(0x3000, 0x2000, true))
	if out.Mispredict || out.TargetMiss {
		t.Errorf("warmed branch should be free, got %+v", out)
	}
}

func TestBTBCapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries = 16
	cfg.BTBAssoc = 2
	u := mustUnit(t, cfg)
	// Warm 64 distinct always-taken branches (4x BTB capacity), then
	// revisit: targets must have been evicted for most.
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			pc := uint64(0x1000 + i*4)
			access(u, condBranch(pc, pc+0x400, true))
		}
	}
	if miss := u.Stats().BTBMiss; miss < 64 {
		t.Errorf("BTBMiss = %d; thrashing 64 branches in a 16-entry BTB should miss heavily", miss)
	}
}

func TestCallReturnRAS(t *testing.T) {
	u := mustUnit(t, DefaultConfig())
	// Nested call/return: returns should be perfectly predicted by RAS.
	for i := 0; i < 50; i++ {
		call := &isa.Inst{PC: 0x1000, Cls: isa.ClassCall, Op: isa.OpBL, Taken: true, Target: 0x4000}
		access(u, call)
		call2 := &isa.Inst{PC: 0x4004, Cls: isa.ClassCall, Op: isa.OpBL, Taken: true, Target: 0x5000}
		access(u, call2)
		ret2 := &isa.Inst{PC: 0x5000, Cls: isa.ClassRet, Op: isa.OpRET, Taken: true, Target: 0x4008}
		access(u, ret2)
		ret := &isa.Inst{PC: 0x4010, Cls: isa.ClassRet, Op: isa.OpRET, Taken: true, Target: 0x1004}
		access(u, ret)
	}
	s := u.Stats()
	if s.ReturnMiss != 0 {
		t.Errorf("RAS missed %d of %d returns", s.ReturnMiss, s.Returns)
	}
}

func TestRASOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 2
	u := mustUnit(t, cfg)
	// Depth-4 nesting overflows a 2-entry RAS: outer returns mispredict.
	var pcs []uint64
	for d := 0; d < 4; d++ {
		pc := uint64(0x1000 + d*0x100)
		access(u, &isa.Inst{PC: pc, Cls: isa.ClassCall, Op: isa.OpBL, Taken: true, Target: pc + 0x100})
		pcs = append(pcs, pc+isa.InstSize)
	}
	for d := 3; d >= 0; d-- {
		access(u, &isa.Inst{PC: 0x5000, Cls: isa.ClassRet, Op: isa.OpRET, Taken: true, Target: pcs[d]})
	}
	if miss := u.Stats().ReturnMiss; miss == 0 {
		t.Error("overflowed RAS should mispredict some returns")
	}
}

func TestIndirectPredictorImprovesPolymorphicTargets(t *testing.T) {
	// An indirect branch alternating between targets in a fixed sequence:
	// a BTB (last-target) predictor misses every switch; the history-based
	// indirect predictor learns the sequence.
	targets := []uint64{0x2000, 0x3000, 0x4000, 0x3000}
	run := func(enabled bool) uint64 {
		cfg := DefaultConfig()
		cfg.IndirectEnabled = enabled
		cfg.IndirectEntries = 512
		cfg.IndirectHistory = 8
		u, _ := NewUnit(cfg)
		for i := 0; i < 4000; i++ {
			access(u, &isa.Inst{PC: 0x1000, Cls: isa.ClassBranchInd, Op: isa.OpBR, Taken: true, Target: targets[i%len(targets)]})
		}
		return u.Stats().IndirectMiss
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Errorf("indirect predictor (%d misses) should beat BTB fallback (%d)", with, without)
	}
}

func TestMPKI(t *testing.T) {
	var s Stats
	s.DirectionMiss = 5
	s.IndirectMiss = 3
	s.ReturnMiss = 2
	if got := s.MPKI(10000); got != 1.0 {
		t.Errorf("MPKI = %v, want 1.0", got)
	}
	if got := s.MPKI(0); got != 0 {
		t.Errorf("MPKI(0) = %v, want 0", got)
	}
}

// Property: predictor state machines never let counters escape 0..3 and
// prediction is deterministic for identical state.
func TestPredictorDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Kind = Kinds[r.Intn(len(Kinds))]
		u1, _ := NewUnit(cfg)
		u2, _ := NewUnit(cfg)
		for i := 0; i < 500; i++ {
			pc := uint64(0x1000 + r.Intn(64)*4)
			taken := r.Intn(2) == 0
			in := condBranch(pc, pc-64, taken)
			o1 := access(u1, in)
			o2 := access(u2, in)
			if o1 != o2 {
				return false
			}
		}
		return u1.Stats() == u2.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// rankLRU is the BTB as it was before btb.access: a lookup that touches
// the way it hits, and an insert that takes the matching or first empty
// way, else the way of highest recency rank (0 = most recent; a set's
// ranks start as the permutation 0..assoc-1).
type rankLRU struct {
	sets, assoc int
	tags, tgts  []uint64
	rank        []uint8
}

func newRankLRU(entries, assoc int) *rankLRU {
	b := &rankLRU{sets: entries / assoc, assoc: assoc,
		tags: make([]uint64, entries), tgts: make([]uint64, entries), rank: make([]uint8, entries)}
	for i := range b.rank {
		b.rank[i] = uint8(i % assoc)
	}
	return b
}

func (b *rankLRU) touch(base, way int) {
	old := b.rank[base+way]
	for w := 0; w < b.assoc; w++ {
		if b.rank[base+w] < old {
			b.rank[base+w]++
		}
	}
	b.rank[base+way] = 0
}

func (b *rankLRU) lookup(pc uint64) (uint64, bool) {
	base := BTBSet(pc, b.sets) * b.assoc
	for w := 0; w < b.assoc; w++ {
		if b.tags[base+w] == pc {
			b.touch(base, w)
			return b.tgts[base+w], true
		}
	}
	return 0, false
}

func (b *rankLRU) insert(pc, target uint64) {
	base := BTBSet(pc, b.sets) * b.assoc
	victim := 0
	for w := 0; w < b.assoc; w++ {
		if b.tags[base+w] == pc || b.tags[base+w] == 0 {
			victim = w
			break
		}
		if b.rank[base+w] > b.rank[base+victim] {
			victim = w
		}
	}
	b.tags[base+victim], b.tgts[base+victim] = pc, target
	b.touch(base, victim)
}

// TestBTBMatchesRankLRU: btb.access answers every access as a lookup then,
// when taken, an insert into the rank-LRU BTB does, and leaves the same
// tags and targets, on every (branch.btb_entries, branch.btb_assoc) pair
// internal/sim lists, plus a geometry of 3 sets. One btb serves them all,
// larger then smaller, so stale stamps of an earlier geometry are in play.
func TestBTBMatchesRankLRU(t *testing.T) {
	type geometry struct{ entries, assoc int }
	var geoms []geometry
	for _, e := range []int{64, 128, 256, 512, 1024} {
		for _, a := range []int{1, 2, 4} {
			geoms = append(geoms, geometry{e, a})
		}
	}
	geoms = append(geoms, geometry{12, 4})
	for i := len(geoms) - 1; i >= 0; i-- {
		geoms = append(geoms, geoms[i])
	}
	rng := rand.New(rand.NewSource(1))
	var got btb
	for _, g := range geoms {
		got.reset(g.entries, g.assoc)
		want := newRankLRU(g.entries, g.assoc)
		// Twice as many PCs as entries, so sets fill and evict.
		pcs := make([]uint64, 2*g.entries)
		for i := range pcs {
			pcs[i] = 0x1000 + 4*uint64(rng.Intn(8*g.entries))
		}
		for n := 0; n < 20000; n++ {
			pc := pcs[rng.Intn(len(pcs))]
			target := 0x80000 + 4*uint64(rng.Intn(64))
			taken := rng.Intn(10) < 7
			wantPred, wantHit := want.lookup(pc)
			if taken {
				want.insert(pc, target)
			}
			pred, hit := got.access(pc, target, taken)
			if hit != wantHit || pred != wantPred {
				t.Fatalf("%d/%d access %d (pc %#x, taken %v): got (%#x, %v), rank LRU (%#x, %v)",
					g.entries, g.assoc, n, pc, taken, pred, hit, wantPred, wantHit)
			}
		}
		for i := range want.tags {
			if got.tags[i] != want.tags[i] || (want.tags[i] != 0 && got.tgts[i] != want.tgts[i]) {
				t.Fatalf("%d/%d way %d: got (%#x -> %#x), rank LRU (%#x -> %#x)",
					g.entries, g.assoc, i, got.tags[i], got.tgts[i], want.tags[i], want.tgts[i])
			}
		}
	}
}
