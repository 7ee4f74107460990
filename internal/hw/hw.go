// Package hw is the stand-in for the paper's real hardware: a Firefly
// RK3399-like reference board whose Cortex-A53 and Cortex-A72 cores are
// instances of the same timing-model family, but with a hidden ground-truth
// configuration (secret values for every parameter the public presets can
// only guess), micro-architectural behaviours the public model initially
// lacks (indirect-branch prediction, the zero-fill page optimization, an
// undisclosed spatial prefetcher on the A72), and deterministic
// pseudo-measurement noise.
//
// The only sanctioned way to observe a board is the perf-like counter API
// (Measure); the tuner never sees the configuration. TrueConfig is exported
// solely so experiments can verify parameter recovery after the fact, which
// a real lab would do by consulting the vendor.
package hw

import (
	"fmt"
	"hash/fnv"
	"math"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/dram"
	"racesim/internal/prefetch"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
)

// Counters is the set of performance counters the board exposes, mirroring
// what Linux perf provides on ARM cores.
type Counters struct {
	Instructions uint64
	Cycles       uint64
	CPI          float64
	BranchMPKI   float64
	L1DMPKI      float64
	L2MPKI       float64
	L1IMPKI      float64
}

// CPIError is the relative CPI error |sim − hw| / hw of a simulated result
// against these counters: the one definition of the metric every score of
// a model uses. Counters without a positive, finite CPI (an empty trace
// measures 0) have no relative error, and saying so beats a silent NaN.
// The result is read, not copied: a warm grid scores thousands.
func (c Counters) CPIError(res *core.Result) (float64, error) {
	if !(c.CPI > 0) || math.IsInf(c.CPI, 0) {
		return 0, fmt.Errorf("hardware CPI %v is not positive and finite", c.CPI)
	}
	return math.Abs(res.CPI()-c.CPI) / c.CPI, nil
}

// Board is one core of the reference platform.
type Board struct {
	Name    string
	FreqGHz float64

	cfg   sim.Config
	fp    string  // cfg.Fingerprint(), the board's half of a cache key
	noise float64 // relative measurement-noise amplitude
	cache *simcache.Cache
}

// NewBoard wraps a configuration as a measurable board. noise is the
// relative amplitude of the deterministic pseudo-noise (0.01 = ±1%).
func NewBoard(name string, freqGHz float64, cfg sim.Config, noise float64) (*Board, error) {
	if err := core.Config(cfg).Validate(); err != nil {
		return nil, fmt.Errorf("hw: %w", err)
	}
	if noise < 0 || noise > 0.2 {
		return nil, fmt.Errorf("hw: noise %v out of [0, 0.2]", noise)
	}
	return &Board{Name: name, FreqGHz: freqGHz, cfg: cfg, fp: cfg.Fingerprint(), noise: noise}, nil
}

// WithCache returns a copy of the board that keeps its replays in cache,
// so a trace is run on the hardware once — methodology step 4 — however
// many experiments, jobs or processes ask for its counters: a replay is an
// ordinary cache entry under the hidden configuration's fingerprint, it
// persists in snapshots, and boards over one hidden configuration (a
// study's re-noised boards) share it. The pseudo-noise is applied after the
// lookup, so the counters are those of an uncached board bit for bit. A
// nil cache replays every measurement, as a board from NewBoard does.
func (b *Board) WithCache(cache *simcache.Cache) *Board {
	c := *b
	c.cache = cache
	return &c
}

// noiseFactor derives a deterministic factor in [1-noise, 1+noise] from
// the trace identity, so repeated measurements are stable but different
// workloads see different "runs".
func (b *Board) noiseFactor(tr *trace.Trace) float64 {
	if b.noise == 0 {
		return 1
	}
	h := fnv.New64a()
	h.Write([]byte(b.Name))
	h.Write([]byte(tr.Name))
	var lenBytes [8]byte
	n := uint64(tr.Len())
	for i := range lenBytes {
		lenBytes[i] = byte(n >> (8 * i))
	}
	h.Write(lenBytes[:])
	u := float64(h.Sum64()%2_000_001)/1_000_000 - 1 // [-1, 1]
	return 1 + b.noise*u
}

// Measure runs tr on the board and returns its performance counters.
func (b *Board) Measure(tr *trace.Trace) (Counters, error) {
	res, err := b.replay(tr)
	if err != nil {
		return Counters{}, fmt.Errorf("hw: %s: %w", b.Name, err)
	}
	f := b.noiseFactor(tr)
	cycles := uint64(float64(res.Cycles) * f)
	if cycles == 0 {
		cycles = 1
	}
	c := Counters{
		Instructions: res.Instructions,
		Cycles:       cycles,
		BranchMPKI:   res.Branch.MPKI(res.Instructions),
		L1DMPKI:      res.Mem.L1D.MPKI(res.Instructions),
		L2MPKI:       res.Mem.L2.MPKI(res.Instructions),
		L1IMPKI:      res.Mem.L1I.MPKI(res.Instructions),
	}
	if res.Instructions > 0 {
		c.CPI = float64(cycles) / float64(res.Instructions)
	}
	return c, nil
}

// replay runs tr on the hidden configuration, through the board's cache
// when it has one (without one the trace is not even digested).
func (b *Board) replay(tr *trace.Trace) (core.Result, error) {
	if b.cache == nil {
		return b.cfg.Run(tr)
	}
	return b.cache.RunKeyed(simcache.JoinKey(b.fp, tr), b.cfg, tr)
}

// TrueConfig exposes the hidden configuration for post-hoc verification in
// experiments. Tuning code must never call this.
func (b *Board) TrueConfig() sim.Config { return b.cfg }

// TrueA53 is the hidden ground truth for the board's in-order core. Every
// tunable value lies inside the search space of sim.Params(InOrder); the
// abstraction-level quirks (zero-fill, correct decoder) do not.
func TrueA53() sim.Config {
	cfg := sim.PublicA53()
	cfg.Name = "firefly-a53"
	cfg.DecoderDepBug = false

	cfg.Branch = branch.Config{
		Kind:            branch.KindGShare,
		BimodalEntries:  4096,
		GShareEntries:   4096,
		HistoryBits:     8,
		ChooserEntries:  2048,
		BTBEntries:      256,
		BTBAssoc:        2,
		RASEntries:      8,
		IndirectEnabled: true,
		IndirectEntries: 256,
		IndirectHistory: 4,
	}
	cfg.FrontEnd = core.FrontEndConfig{MispredictPenalty: 10, BTBMissPenalty: 2, FetchWidth: 2}

	cfg.Lat = core.LatencyConfig{
		IntALU: 1, IntMul: 3, IntDiv: 12, FPAdd: 4, FPMul: 4, FPDiv: 18,
		FPCvt: 3, SIMD: 3,
		IntDivII: 12, FPDivII: 18, // divides are not pipelined
	}
	cfg.Pipes = core.PipesConfig{
		IntALU: 2, IntMul: 1, IntDiv: 1, FP: 1, FPDiv: 1, Load: 1, Store: 1, Branch: 1,
	}
	cfg.MSHRs = 3
	cfg.StoreBufferEntries = 6
	cfg.DualIssueLoadStore = true
	cfg.MaxMemPerCycle = 1

	cfg.Mem.L1D.HitLatency = 3
	cfg.Mem.L1D.Repl = cache.ReplPLRU
	cfg.Mem.L1D.Prefetch = prefetch.Config{
		Kind: prefetch.KindStride, Degree: 2, Distance: 2, TableEntries: 32, GHBEntries: 256,
	}
	cfg.Mem.L1I.HitLatency = 1
	cfg.Mem.L1I.Prefetch = prefetch.Config{Kind: prefetch.KindNextLine, Degree: 1, Distance: 1, TableEntries: 16, GHBEntries: 16}

	cfg.Mem.L2.HitLatency = 12
	cfg.Mem.L2.TagDataSerial = true
	cfg.Mem.L2.Repl = cache.ReplLRU
	cfg.Mem.L2.MSHRs = 8
	cfg.Mem.L2.Prefetch = prefetch.DefaultConfig()

	cfg.Mem.ITLBEntries = 32
	cfg.Mem.DTLBEntries = 32
	cfg.Mem.TLBMissLatency = 20
	cfg.Mem.DRAM = dram.Config{LatencyCycles: 180, BurstCycles: 6, QueueDepth: 16}

	// Hardware behaviours outside the public model (abstraction gaps).
	cfg.Mem.ZeroFillOpt = true
	cfg.Mem.ZeroFillLatency = 48
	return cfg
}

// TrueA72 is the hidden ground truth for the board's out-of-order core.
// Its L2 uses the undisclosed spatial prefetcher, which the tuner's space
// cannot express — the source of the paper's residual A72 error.
func TrueA72() sim.Config {
	cfg := sim.PublicA72()
	cfg.Name = "firefly-a72"
	cfg.DecoderDepBug = false

	cfg.Branch = branch.Config{
		Kind:            branch.KindTournament,
		BimodalEntries:  4096,
		GShareEntries:   4096,
		HistoryBits:     10,
		ChooserEntries:  2048,
		BTBEntries:      512,
		BTBAssoc:        2,
		RASEntries:      16,
		IndirectEnabled: true,
		IndirectEntries: 512,
		IndirectHistory: 8,
	}
	cfg.FrontEnd = core.FrontEndConfig{MispredictPenalty: 14, BTBMissPenalty: 2, FetchWidth: 3}

	cfg.Lat = core.LatencyConfig{
		IntALU: 1, IntMul: 3, IntDiv: 10, FPAdd: 4, FPMul: 4, FPDiv: 14,
		FPCvt: 3, SIMD: 3,
		IntDivII: 8, FPDivII: 10,
	}
	cfg.Pipes = core.PipesConfig{
		IntALU: 2, IntMul: 1, IntDiv: 1, FP: 2, FPDiv: 1, Load: 1, Store: 1, Branch: 1,
	}
	cfg.MSHRs = 6
	cfg.ROBEntries = 128
	cfg.IQEntries = 48
	cfg.LQEntries = 16
	cfg.SQEntries = 16
	cfg.RetireWidth = 3

	cfg.Mem.L1D.HitLatency = 4
	cfg.Mem.L1D.Ports = 2
	cfg.Mem.L1D.Prefetch = prefetch.Config{
		Kind: prefetch.KindStride, Degree: 2, Distance: 4, TableEntries: 64, GHBEntries: 256,
	}
	cfg.Mem.L1I.HitLatency = 1
	cfg.Mem.L1I.Prefetch = prefetch.Config{Kind: prefetch.KindNextLine, Degree: 2, Distance: 1, TableEntries: 16, GHBEntries: 16}

	cfg.Mem.L2.HitLatency = 18
	cfg.Mem.L2.Hash = cache.HashXor
	cfg.Mem.L2.Repl = cache.ReplPLRU
	cfg.Mem.L2.MSHRs = 12
	// The abstraction gap: an aggressive spatial prefetcher that the
	// public model cannot configure (prefetch.KindSpatial is not offered
	// to the tuner).
	cfg.Mem.L2.Prefetch = prefetch.Config{
		Kind: prefetch.KindSpatial, Degree: 4, Distance: 1, TableEntries: 64, GHBEntries: 256,
	}

	cfg.Mem.ITLBEntries = 48
	cfg.Mem.DTLBEntries = 48
	cfg.Mem.TLBMissLatency = 20
	cfg.Mem.DRAM = dram.Config{LatencyCycles: 180, BurstCycles: 6, QueueDepth: 16}

	cfg.Mem.ZeroFillOpt = true
	cfg.Mem.ZeroFillLatency = 48
	return cfg
}

// Platform is the full Firefly RK3399-like board: one A53-class core and
// one A72-class core.
type Platform struct {
	A53 *Board
	A72 *Board
}

// WithCache returns the platform with both boards keeping their replays
// in cache (see Board.WithCache).
func (p *Platform) WithCache(cache *simcache.Cache) *Platform {
	return &Platform{A53: p.A53.WithCache(cache), A72: p.A72.WithCache(cache)}
}

// Firefly returns the reference platform with the paper's clock speeds and
// ±1% measurement noise.
func Firefly() (*Platform, error) {
	a53, err := NewBoard("firefly-a53", 1.51, TrueA53(), 0.01)
	if err != nil {
		return nil, err
	}
	a72, err := NewBoard("firefly-a72", 1.99, TrueA72(), 0.01)
	if err != nil {
		return nil, err
	}
	return &Platform{A53: a53, A72: a72}, nil
}
