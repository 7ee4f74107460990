package prefetch

import (
	"slices"
	"testing"
)

func mk(t *testing.T, cfg Config) Prefetcher {
	t.Helper()
	p, err := New(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Kind: "warp", Degree: 1, Distance: 1},
		{Kind: KindStride, Degree: 1, Distance: 1, TableEntries: 100},
		{Kind: KindNextLine, Degree: 0, Distance: 1},
		{Kind: KindNextLine, Degree: 1, Distance: 0},
		{Kind: KindGHB, Degree: 1, Distance: 1, TableEntries: 64, GHBEntries: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestNone(t *testing.T) {
	p := mk(t, DefaultConfig())
	if got := p.Observe(0x100, 0x4000, true); got != nil {
		t.Errorf("none prefetcher issued %v", got)
	}
}

func TestNextLine(t *testing.T) {
	cfg := Config{Kind: KindNextLine, Degree: 2, Distance: 1}
	p := mk(t, cfg)
	got := p.Observe(0x100, 0x4000, true)
	want := []uint64{0x4040, 0x4080}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("next-line = %#v, want %#v", got, want)
	}
	if got := p.Observe(0x100, 0x4000, false); got != nil {
		t.Errorf("next-line fired on hit without OnHit: %v", got)
	}
	cfg.OnHit = true
	p = mk(t, cfg)
	if got := p.Observe(0x100, 0x4000, false); len(got) != 2 {
		t.Errorf("next-line with OnHit should fire on hits, got %v", got)
	}
}

func TestStrideDetectsConstantStride(t *testing.T) {
	cfg := Config{Kind: KindStride, Degree: 1, Distance: 2, TableEntries: 64}
	p := mk(t, cfg)
	pc := uint64(0x1000)
	var fired []uint64
	// Stream with stride 128 (two lines).
	for i := 0; i < 8; i++ {
		addr := uint64(0x8000 + i*128)
		fired = append(fired, p.Observe(pc, addr, true)...)
	}
	if len(fired) == 0 {
		t.Fatal("stride prefetcher never fired on a constant-stride stream")
	}
	// Targets must be stride*distance ahead.
	last := fired[len(fired)-1]
	if (last-0x8000)%128 != 0 {
		t.Errorf("prefetch target %#x not on the stride lattice", last)
	}
	// Different PC must not be confused.
	if got := p.Observe(0x2000, 0x9000, true); got != nil {
		t.Errorf("fresh PC fired immediately: %v", got)
	}
}

func TestStrideIgnoresRandomStream(t *testing.T) {
	cfg := Config{Kind: KindStride, Degree: 1, Distance: 1, TableEntries: 64}
	p := mk(t, cfg)
	addrs := []uint64{0x1000, 0x9340, 0x2280, 0xF000, 0x3340, 0xB000, 0x60C0}
	n := 0
	for _, a := range addrs {
		n += len(p.Observe(0x500, a, true))
	}
	if n != 0 {
		t.Errorf("stride prefetcher fired %d times on a random stream", n)
	}
}

func TestGHBDeltaCorrelation(t *testing.T) {
	cfg := Config{Kind: KindGHB, Degree: 2, Distance: 1, TableEntries: 64, GHBEntries: 128}
	p := mk(t, cfg)
	var fired []uint64
	for i := 0; i < 10; i++ {
		addr := uint64(0x10000 + i*192) // delta = 3 lines
		fired = append(fired, p.Observe(0x700, addr, true)...)
	}
	if len(fired) == 0 {
		t.Fatal("GHB never fired on a constant-delta stream")
	}
	for _, a := range fired {
		if (a-0x10000)%192 != 0 {
			t.Errorf("GHB target %#x off the delta lattice", a)
		}
	}
}

func TestSpatialStaysInRegion(t *testing.T) {
	cfg := Config{Kind: KindSpatial, Degree: 4, Distance: 1}
	p := mk(t, cfg)
	p.Observe(0, 0x40000, true)
	fired := p.Observe(0, 0x40080, true)
	if len(fired) == 0 {
		t.Fatal("spatial prefetcher did not fire on second regional miss")
	}
	for _, a := range fired {
		if a>>12 != 0x40 {
			t.Errorf("spatial prefetch %#x escaped the 4KB region", a)
		}
	}
}

func TestSpatialExcludedFromTunerKinds(t *testing.T) {
	for _, k := range Kinds {
		if k == KindSpatial {
			t.Error("spatial prefetcher must not be offered to the tuner")
		}
	}
}

func TestPrefetcherNeverReturnsZeroAddress(t *testing.T) {
	cfgs := []Config{
		{Kind: KindStride, Degree: 4, Distance: 8, TableEntries: 16},
		{Kind: KindGHB, Degree: 4, Distance: 8, TableEntries: 16, GHBEntries: 32},
	}
	for _, cfg := range cfgs {
		p := mk(t, cfg)
		// Descending stream near zero: candidate targets would underflow.
		for i := 10; i >= 0; i-- {
			for _, a := range p.Observe(0x100, uint64(i*64), true) {
				if a == 0 || int64(a) < 0 {
					t.Errorf("%s produced non-positive address %#x", cfg.Kind, a)
				}
			}
		}
	}
}

// trainingStream is a mix of constant-stride, delta-correlated and
// same-region accesses that makes every prefetcher kind fire.
func trainingStream(p Prefetcher, n int) (fired int) {
	for i := 0; i < n; i++ {
		pc := uint64(0x700 + 4*(i%3))
		fired += len(p.Observe(pc, uint64(0x10000+i*128), i%2 == 0))
	}
	return fired
}

// TestObserveDoesNotAllocate: Observe returns a slice of the prefetcher's
// own scratch array, so the cache hot path trains and triggers prefetchers
// without touching the heap.
func TestObserveDoesNotAllocate(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: KindNextLine, Degree: 16, Distance: 2, OnHit: true},
		{Kind: KindStride, Degree: 16, Distance: 2, TableEntries: 64, OnHit: true},
		{Kind: KindGHB, Degree: 16, Distance: 2, TableEntries: 64, GHBEntries: 128, OnHit: true},
		{Kind: KindSpatial, Degree: 16, Distance: 1, OnHit: true},
	} {
		p := mk(t, cfg)
		if trainingStream(p, 64) == 0 {
			t.Fatalf("%s never fired on the training stream", cfg.Kind)
		}
		if allocs := testing.AllocsPerRun(20, func() { trainingStream(p, 64) }); allocs != 0 {
			t.Errorf("%s: Observe allocates (%.1f objects per 64 calls), want 0", cfg.Kind, allocs)
		}
	}
}

// TestBankResetMatchesNew: a bank that has served other kinds and larger
// tables yields, after Reset, a prefetcher that proposes exactly what a
// newly built one does.
func TestBankResetMatchesNew(t *testing.T) {
	cfgs := []Config{
		{Kind: KindGHB, Degree: 4, Distance: 2, TableEntries: 256, GHBEntries: 300},
		{Kind: KindStride, Degree: 2, Distance: 1, TableEntries: 128},
		{Kind: KindSpatial, Degree: 8, Distance: 1},
		{Kind: KindGHB, Degree: 1, Distance: 4, TableEntries: 16, GHBEntries: 16},
		{Kind: KindStride, Degree: 4, Distance: 8, TableEntries: 16, OnHit: true},
		{Kind: KindNextLine, Degree: 3, Distance: 1},
		{Kind: KindNone},
	}
	var bank Bank
	for round := 0; round < 2; round++ {
		for _, cfg := range cfgs {
			recycled, err := bank.Reset(cfg, 64)
			if err != nil {
				t.Fatal(err)
			}
			fresh := mk(t, cfg)
			for i := 0; i < 400; i++ {
				pc := uint64(0x700 + 4*(i%5))
				addr := uint64(0x20000 + (i%7)*64*(1+i%3) + i/50*4096)
				miss := i%4 != 0
				got := append([]uint64(nil), recycled.Observe(pc, addr, miss)...)
				want := fresh.Observe(pc, addr, miss)
				if len(got) != len(want) {
					t.Fatalf("round %d, %s, access %d: recycled proposes %v, fresh %v", round, cfg.Kind, i, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("round %d, %s, access %d: recycled proposes %v, fresh %v", round, cfg.Kind, i, got, want)
					}
				}
			}
		}
	}
}

// TestSpatialForgetsInOrder: a stream over more regions than the spatial
// prefetcher tracks makes it forget, and what it forgets must not depend on
// map iteration order — two instances fed one stream propose the same
// lines. (It used to drop whichever half of the map a range visited first,
// so the A72 board measured the lmbench memory chase differently every
// time.)
func TestSpatialForgetsInOrder(t *testing.T) {
	cfg := Config{Kind: KindSpatial, Degree: 4, Distance: 1}
	a, b := mk(t, cfg), mk(t, cfg)
	fired := 0
	x := uint64(1)
	for i := 0; i < 8*spatialRegions; i++ {
		// Random regions out of 1.5x what is tracked: about half of the
		// revisits find their region forgotten.
		x = x*6364136223846793005 + 1442695040888963407
		region := (x >> 33) % (spatialRegions * 3 / 2)
		addr := region<<12 + (x>>20)%64*64
		got := append([]uint64(nil), a.Observe(0, addr, true)...)
		want := b.Observe(0, addr, true)
		fired += len(got)
		if !slices.Equal(got, want) {
			t.Fatalf("access %d: one instance proposes %v, the other %v", i, got, want)
		}
	}
	if fired == 0 {
		t.Fatal("the stream never revisited a tracked region")
	}
}
