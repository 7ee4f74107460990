package lmbench

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"racesim/internal/asm"
	"racesim/internal/hw"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
)

func TestEstimateA53(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(p.A53, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := p.A53.TrueConfig()
	t.Logf("A53 estimates: L1=%d L2=%d mem=%d (truth: %d, %d, %d+)",
		est.L1Cycles, est.L2Cycles, est.MemCycles,
		truth.Mem.L1D.HitLatency, truth.Mem.L2.HitLatency, truth.Mem.DRAM.LatencyCycles)
	if d := est.L1Cycles - truth.Mem.L1D.HitLatency; d < -1 || d > 2 {
		t.Errorf("L1 estimate %d vs truth %d", est.L1Cycles, truth.Mem.L1D.HitLatency)
	}
	// L2 chases see L1 latency + L2 latency (+serial tag penalty).
	l2Truth := truth.Mem.L1D.HitLatency + truth.Mem.L2.HitLatency
	if d := est.L2Cycles - l2Truth; d < -4 || d > 8 {
		t.Errorf("L2 estimate %d vs expected ~%d", est.L2Cycles, l2Truth)
	}
	memTruth := truth.Mem.DRAM.LatencyCycles
	if est.MemCycles < memTruth/2 || est.MemCycles > memTruth*2 {
		t.Errorf("memory estimate %d vs truth %d", est.MemCycles, memTruth)
	}
}

func TestEstimateOrdering(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*hw.Board{p.A53, p.A72} {
		est, err := Estimate(b, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !(est.L1Cycles < est.L2Cycles && est.L2Cycles < est.MemCycles) {
			t.Errorf("%s: latencies not ordered: %+v", b.Name, est)
		}
	}
}

func TestSnap(t *testing.T) {
	vals := []int{9, 12, 15, 18, 21}
	cases := map[int]int{8: 9, 13: 12, 14: 15, 17: 18, 30: 21}
	for in, want := range cases {
		if got := Snap(in, vals); got != want {
			t.Errorf("Snap(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestEstimateSameForAnySources: the estimates are a function of the board
// alone — building and measuring the six traces concurrently, fetching them
// through a memo and measuring through a cache (cold, then warm) all give
// what the sequential, generate-everything, replay-everything path gives.
// With memo and cache the second estimate generates and replays nothing.
func TestEstimateSameForAnySources(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	memo, cache := tracememo.New(0, 0), simcache.New()
	for _, b := range []*hw.Board{p.A53, p.A72} {
		want, err := Estimate(b, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			board *hw.Board
			memo  *tracememo.Memo
			par   int
		}{
			{"concurrent", b, nil, 6},
			{"memo", b, memo, 1},
			{"cache, cold", b.WithCache(cache), nil, 3},
			{"memo and cache, warm", b.WithCache(cache), memo, 6},
		} {
			got, err := Estimate(tc.board, tc.memo, tc.par)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s, %s: estimates %+v, sequential direct path %+v", b.Name, tc.name, got, want)
			}
		}
	}
	// Per board: six traces, generated once in the memo (the second board
	// and the warm pass reuse them) and replayed once in the cache.
	if st := memo.Stats(); st.Misses != 6 || st.Hits != 18 {
		t.Errorf("memo: %+v, want 6 misses and 18 hits", st)
	}
	if st := cache.Stats(); st.Misses != 12 || st.Hits != 12 {
		t.Errorf("cache: %+v, want 12 replays and 12 hits", st)
	}
}

// TestChaseKeysCoverEveryParameter: a chase trace is generated from the
// four fields of its chase, its calibration from the size alone; each must
// move the memo key it belongs to.
func TestChaseKeysCoverEveryParameter(t *testing.T) {
	if n := reflect.TypeOf(chase{}).NumField(); n != 4 {
		t.Fatalf("chase has %d fields; decide how the new one enters its traces' memo keys", n)
	}
	base := chase{8192, 64, 100, 1}
	for name, c := range map[string]chase{
		"sizeBytes": {4096, 64, 100, 1}, "stride": {8192, 128, 100, 1},
		"iters": {8192, 64, 200, 1}, "seed": {8192, 64, 100, 2},
	} {
		if c.chaseKey() == base.chaseKey() {
			t.Errorf("%s does not reach the chase's memo key", name)
		}
	}
	if (chase{4096, 64, 100, 1}).calibrationKey() == base.calibrationKey() {
		t.Error("sizeBytes does not reach the calibration's memo key")
	}
	if base.chaseKey() == base.calibrationKey() {
		t.Error("a chase and its calibration share a memo key")
	}
}

// TestChainInImageMatchesAssembledChain: writing the chain into the program
// image directly yields, event for event, the trace of the program that
// spells every node out as ".data/.quad" assembler text — the form the
// chases were first written in, kept here as the reference.
func TestChainInImageMatchesAssembledChain(t *testing.T) {
	for _, c := range chases {
		n := c.sizeBytes / c.stride
		perm := rand.New(rand.NewSource(c.seed)).Perm(n)
		var b strings.Builder
		b.WriteString(prologue + touchPreamble(c.sizeBytes))
		fmt.Fprintf(&b, "la x20, BUF+%d\nla x28, %d\n", perm[0]*c.stride, c.iters)
		b.WriteString("chase:\n" + strings.Repeat("ldrx x20, [x20, #0]\n", loadsPerIter) + "subi x28, x28, #1\ncbnz x28, chase\nhalt\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, ".data BUF+%d\n.quad BUF+%d\n", perm[i]*c.stride, perm[(i+1)%n]*c.stride)
		}
		prog, err := asm.Assemble(b.String())
		if err != nil {
			t.Fatal(err)
		}
		want, err := trace.Record("reference", prog, 30_000_000)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.trace(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() || got.Digest() != want.Digest() {
			t.Errorf("chase %+v: %d events, digest %s; assembled chain: %d events, digest %s",
				c, got.Len(), got.Digest(), want.Len(), want.Digest())
		}
	}
}
