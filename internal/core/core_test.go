package core

import (
	"fmt"
	"strings"
	"testing"

	"racesim/internal/asm"
	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/dram"
	"racesim/internal/prefetch"
	"racesim/internal/trace"
)

func testMem() cache.HierarchyConfig {
	l1 := cache.Config{
		Name: "l1d", SizeKB: 32, Assoc: 4, LineSize: 64,
		HitLatency: 3, Hash: cache.HashMask, Repl: cache.ReplLRU,
		MSHRs: 4, Ports: 1, WriteBack: true, WriteAllocate: true,
		Prefetch: prefetch.DefaultConfig(),
	}
	l1i := l1
	l1i.Name = "l1i"
	l1i.HitLatency = 1
	l2 := cache.Config{
		Name: "l2", SizeKB: 512, Assoc: 16, LineSize: 64,
		HitLatency: 12, Hash: cache.HashMask, Repl: cache.ReplLRU,
		MSHRs: 8, Ports: 1, WriteBack: true, WriteAllocate: true,
		Prefetch: prefetch.DefaultConfig(),
	}
	return cache.HierarchyConfig{
		L1I: l1i, L1D: l1, L2: l2, DRAM: dram.DefaultConfig(),
		ITLBEntries: 32, DTLBEntries: 32, TLBMissLatency: 20, PageBytes: 4096,
	}
}

func testLat() LatencyConfig {
	return LatencyConfig{
		IntALU: 1, IntMul: 3, IntDiv: 12, FPAdd: 4, FPMul: 4, FPDiv: 18,
		FPCvt: 3, SIMD: 3, IntDivII: 12, FPDivII: 18,
	}
}

func testPipes() PipesConfig {
	return PipesConfig{IntALU: 2, IntMul: 1, IntDiv: 1, FP: 1, FPDiv: 1, Load: 1, Store: 1, Branch: 1}
}

func inorderCfg() Config {
	return Config{
		Kind: InOrder, Width: 2, DualIssueLoadStore: true, MaxMemPerCycle: 1, MaxBranchPerCycle: 1,
		MSHRs: 2, StoreBufferEntries: 4,
		Lat: testLat(), Pipes: testPipes(),
		FrontEnd: FrontEndConfig{MispredictPenalty: 8, BTBMissPenalty: 2, FetchWidth: 2},
		Branch:   branch.DefaultConfig(),
		Mem:      testMem(),
	}
}

func oooCfg() Config {
	return Config{
		Kind: OutOfOrder, DispatchWidth: 3, RetireWidth: 3, ROBEntries: 128, IQEntries: 64,
		LQEntries: 32, SQEntries: 32, MSHRs: 6,
		Lat: testLat(), Pipes: PipesConfig{IntALU: 2, IntMul: 1, IntDiv: 1, FP: 2, FPDiv: 1, Load: 1, Store: 1, Branch: 1},
		FrontEnd: FrontEndConfig{MispredictPenalty: 14, BTBMissPenalty: 3, FetchWidth: 3},
		Branch:   branch.DefaultConfig(),
		Mem:      testMem(),
	}
}

func record(t *testing.T, src string) *trace.Trace {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record("test", p, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// replay runs d through Replay with the tape memo tapes (nil: the memory
// hierarchy is simulated live).
func replay(cfg Config, d *trace.Decoded, tapes *TapeMemo) (Result, error) {
	behav := CompileBehaviors(d.Insts)
	classes := ClassHistogram(d.IDs, behav)
	return Replay(cfg, d, behav, &classes, tapes, cfg.Mem)
}

func run(t *testing.T, cfg Config, tr *trace.Trace) Result {
	t.Helper()
	res, err := replay(cfg, tr.Decoded(cfg.DecoderDepBug), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// independentALU builds a loop of independent integer ops.
func independentALU(iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "movz x9, #%d\n", iters)
	b.WriteString("loop:\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, "addi x%d, x%d, #1\n", i%8+1, i%8+1)
	}
	b.WriteString("subi x9, x9, #1\ncbnz x9, loop\nhalt\n")
	return b.String()
}

// chainALU builds a serial dependency chain.
func chainALU(iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "movz x9, #%d\n", iters)
	b.WriteString("loop:\n")
	for i := 0; i < 16; i++ {
		b.WriteString("addi x1, x1, #1\n")
	}
	b.WriteString("subi x9, x9, #1\ncbnz x9, loop\nhalt\n")
	return b.String()
}

// TestReplayRejectsInvalidConfigs pins Validate's messages — racesim run
// -config prints them — for the kind, each kind's own limits and the shared
// parts, and checks that Replay refuses each configuration with the same
// error before simulating anything.
func TestReplayRejectsInvalidConfigs(t *testing.T) {
	d := record(t, independentALU(10)).Decoded(false)
	for _, tc := range []struct {
		base func() Config
		bad  func(*Config)
		want string
	}{
		{inorderCfg, func(c *Config) { c.Kind = "vliw" }, `sim: unknown core kind "vliw"`},
		{inorderCfg, func(c *Config) { c.Width = 5 }, "core: in-order width = 5 out of [1,4]"},
		{inorderCfg, func(c *Config) { c.MaxMemPerCycle = 3 }, "core: MaxMemPerCycle = 3 out of [1,width]"},
		{inorderCfg, func(c *Config) { c.StoreBufferEntries = 0 }, "core: StoreBufferEntries = 0 out of [1,64]"},
		{inorderCfg, func(c *Config) { c.MSHRs = 33 }, "core: MSHRs = 33 out of [1,32]"},
		{oooCfg, func(c *Config) { c.ROBEntries = 7 }, "core: ROBEntries = 7 out of [8,512]"},
		{oooCfg, func(c *Config) { c.SQEntries = 129 }, "core: SQEntries = 129 out of [4,128]"},
		{oooCfg, func(c *Config) { c.MSHRs = 0 }, "core: MSHRs = 0 out of [1,32]"},
		{oooCfg, func(c *Config) { c.Lat.FPMul = 0 }, "core: latency FPMul = 0 must be positive"},
	} {
		cfg := tc.base()
		tc.bad(&cfg)
		if err := cfg.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("Validate: %v, want %q", err, tc.want)
		}
		if _, err := replay(cfg, d, nil); err == nil || err.Error() != tc.want {
			t.Errorf("Replay: %v, want %q", err, tc.want)
		}
	}
}

func TestInOrderDualIssueThroughput(t *testing.T) {
	tr := record(t, independentALU(500))
	res := run(t, inorderCfg(), tr)
	cpi := res.CPI()
	// Independent single-cycle ops on a 2-wide core: CPI near 0.5-0.7
	// (loop overhead shares slots).
	if cpi < 0.45 || cpi > 0.85 {
		t.Errorf("independent ALU CPI = %.3f, want ~0.5-0.8", cpi)
	}
}

func TestInOrderDependencyChainSerializes(t *testing.T) {
	tr := record(t, chainALU(500))
	res := run(t, inorderCfg(), tr)
	cpi := res.CPI()
	// A 1-cycle chain bounds CPI near 1.0.
	if cpi < 0.9 || cpi > 1.3 {
		t.Errorf("chained ALU CPI = %.3f, want ~1.0", cpi)
	}
}

func TestInOrderWidthMatters(t *testing.T) {
	tr := record(t, independentALU(300))
	wide := run(t, inorderCfg(), tr)
	narrow := inorderCfg()
	narrow.Width = 1
	narrowRes := run(t, narrow, tr)
	if narrowRes.CPI() <= wide.CPI()*1.3 {
		t.Errorf("1-wide CPI %.3f should be well above 2-wide %.3f", narrowRes.CPI(), wide.CPI())
	}
}

func TestDivChainPaysInitiationInterval(t *testing.T) {
	src := `
		movz x9, #200
		movz x2, #7
	loop:
		sdiv x1, x1, x2
		sdiv x1, x1, x2
		sdiv x1, x1, x2
		sdiv x1, x1, x2
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`
	tr := record(t, src)
	res := run(t, inorderCfg(), tr)
	// Two thirds of instructions are dependent 12-cycle divides.
	if cpi := res.CPI(); cpi < 6 {
		t.Errorf("divide chain CPI = %.2f, want > 6", cpi)
	}
}

func TestPointerChaseSeesL1Latency(t *testing.T) {
	// Build a pointer chain within one page, each node pointing to the
	// next; dependent loads expose the L1 hit latency.
	var b strings.Builder
	b.WriteString(`
		.equ CH, 0x40000
		.org 0x1000
		la x1, CH
		movz x9, #30000
	loop:
		ldrx x1, [x1, #0]
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`)
	for i := 0; i < 64; i++ {
		next := 0x40000 + ((i+1)%64)*64
		fmt.Fprintf(&b, "\n.data CH+%d\n.quad %d\n", i*64, next)
	}
	tr := record(t, b.String())
	res := run(t, inorderCfg(), tr)
	// Each iteration: dependent load (3 cycles) dominates; 3 instructions
	// per iteration -> CPI >= 1.
	if cpi := res.CPI(); cpi < 1.0 || cpi > 2.5 {
		t.Errorf("L1 pointer chase CPI = %.2f, want in [1.0, 2.5]", cpi)
	}
	if res.Mem.L1D.MissRate() > 0.05 {
		t.Errorf("pointer chase in one page should hit L1, miss rate %.2f", res.Mem.L1D.MissRate())
	}
}

func TestMispredictPenaltyVisible(t *testing.T) {
	// Data-dependent unpredictable branches (LCG parity) vs biased ones.
	random := `
		movz x9, #3000
		movz x5, #12345
		movz x6, #1103
		movz x7, #2
	loop:
		mul x5, x5, x6
		addi x5, x5, #7
		lsri x4, x5, #9
		andi x4, x4, #1
		cbnz x4, skip
		addi x2, x2, #1
	skip:
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`
	biased := strings.Replace(random, "andi x4, x4, #1", "andi x4, x4, #0", 1)
	trR := record(t, random)
	trB := record(t, biased)
	resR := run(t, inorderCfg(), trR)
	resB := run(t, inorderCfg(), trB)
	if resR.CPI() <= resB.CPI()*1.15 {
		t.Errorf("unpredictable branches CPI %.3f should exceed biased %.3f", resR.CPI(), resB.CPI())
	}
	if resR.Branch.Mispredicts() == 0 {
		t.Error("no mispredicts recorded for random branches")
	}
}

func TestBiggerMispredictPenaltyRaisesCPI(t *testing.T) {
	src := `
		movz x9, #2000
		movz x5, #12345
		movz x6, #1103
	loop:
		mul x5, x5, x6
		addi x5, x5, #7
		lsri x4, x5, #9
		andi x4, x4, #1
		cbnz x4, skip
		addi x2, x2, #1
	skip:
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`
	tr := record(t, src)
	small := inorderCfg()
	small.FrontEnd.MispredictPenalty = 4
	big := inorderCfg()
	big.FrontEnd.MispredictPenalty = 24
	if a, b := run(t, small, tr).CPI(), run(t, big, tr).CPI(); b <= a {
		t.Errorf("penalty 24 CPI %.3f should exceed penalty 4 CPI %.3f", b, a)
	}
}

// strideMisses builds a loop streaming over a large array with one load
// per iteration, mostly independent -> exposes MLP differences.
func strideMisses() string {
	return `
		.equ BUF, 0x100000
		movz x9, #4000
		la x1, BUF
	loop:
		ldrx x2, [x1, #0]
		ldrx x3, [x1, #64]
		ldrx x4, [x1, #128]
		ldrx x5, [x1, #192]
		addi x1, x1, #256
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`
}

func TestOoOHidesMissLatencyBetterThanInOrder(t *testing.T) {
	tr := record(t, strideMisses())
	ino := run(t, inorderCfg(), tr)
	ooo := run(t, oooCfg(), tr)
	if ooo.CPI() >= ino.CPI() {
		t.Errorf("OoO CPI %.3f should beat in-order %.3f on independent misses", ooo.CPI(), ino.CPI())
	}
}

func TestOoOROBSizeMatters(t *testing.T) {
	tr := record(t, strideMisses())
	// Make MSHRs plentiful so the ROB window is the binding constraint on
	// memory-level parallelism.
	big := oooCfg()
	big.ROBEntries = 192
	big.MSHRs = 24
	small := oooCfg()
	small.ROBEntries = 16
	small.IQEntries = 8
	small.MSHRs = 24
	bigRes := run(t, big, tr)
	smallRes := run(t, small, tr)
	if smallRes.CPI() <= bigRes.CPI()*1.1 {
		t.Errorf("16-entry ROB CPI %.3f should be well above 192-entry %.3f", smallRes.CPI(), bigRes.CPI())
	}
}

func TestOoOMSHRLimitsMLP(t *testing.T) {
	tr := record(t, strideMisses())
	many := oooCfg()
	many.MSHRs = 8
	one := oooCfg()
	one.MSHRs = 1
	manyRes := run(t, many, tr)
	oneRes := run(t, one, tr)
	if oneRes.CPI() <= manyRes.CPI() {
		t.Errorf("1 MSHR CPI %.3f should exceed 8 MSHRs %.3f", oneRes.CPI(), manyRes.CPI())
	}
}

func TestDecoderDepBugSpeedsUpFPChains(t *testing.T) {
	src := `
		movz x9, #1000
		movz x2, #3
		scvtf v1, x2
		scvtf v2, x2
	loop:
		fmul v1, v1, v2
		fmul v1, v1, v2
		fmul v1, v1, v2
		fmul v1, v1, v2
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`
	tr := record(t, src)
	good := inorderCfg()
	buggy := inorderCfg()
	buggy.DecoderDepBug = true
	goodRes := run(t, good, tr)
	buggyRes := run(t, buggy, tr)
	// fmul v1, v1, v2: the chain runs through operand 1, which the buggy
	// decoder keeps; but fcmp-style second operands vanish. Here the bug
	// drops v2 only, so timing stays chained. Use a chain through the
	// second operand instead.
	_ = goodRes
	_ = buggyRes
	src2 := strings.ReplaceAll(src, "fmul v1, v1, v2", "fmul v1, v2, v1")
	tr2 := record(t, src2)
	goodRes = run(t, good, tr2)
	buggyRes = run(t, buggy, tr2)
	if buggyRes.CPI() >= goodRes.CPI() {
		t.Errorf("dep-bug CPI %.3f should be (wrongly) below correct %.3f", buggyRes.CPI(), goodRes.CPI())
	}
}

func TestRunDeterminism(t *testing.T) {
	tr := record(t, strideMisses())
	a := run(t, inorderCfg(), tr)
	b := run(t, inorderCfg(), tr)
	if a != b {
		t.Error("in-order model is not deterministic")
	}
	c := run(t, oooCfg(), tr)
	d := run(t, oooCfg(), tr)
	if c != d {
		t.Error("OoO model is not deterministic")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	d := record(t, chainALU(10)).Decoded(false)
	bad := inorderCfg()
	bad.Width = 9
	if _, err := replay(bad, d, nil); err == nil {
		t.Error("width 9 accepted")
	}
	bad = inorderCfg()
	bad.Lat.IntDiv = 0
	if _, err := replay(bad, d, nil); err == nil {
		t.Error("zero div latency accepted")
	}
	badO := oooCfg()
	badO.ROBEntries = 4
	if _, err := replay(badO, d, nil); err == nil {
		t.Error("ROB 4 accepted")
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	src := `
		.equ BUF, 0x200000
		movz x9, #3000
		la x1, BUF
	loop:
		strx x2, [x1, #0]
		strx x2, [x1, #64]
		strx x2, [x1, #128]
		strx x2, [x1, #192]
		addi x1, x1, #256
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`
	tr := record(t, src)
	small := inorderCfg()
	small.StoreBufferEntries = 1
	big := inorderCfg()
	big.StoreBufferEntries = 32
	a := run(t, small, tr)
	b := run(t, big, tr)
	if a.CPI() <= b.CPI() {
		t.Errorf("1-entry store buffer CPI %.3f should exceed 32-entry %.3f", a.CPI(), b.CPI())
	}
}

func TestClassCountsMatchTrace(t *testing.T) {
	tr := record(t, strideMisses())
	res := run(t, inorderCfg(), tr)
	mix := tr.ClassMix()
	for cls, n := range mix {
		if res.ClassCounts[cls] != uint64(n) {
			t.Errorf("class %d count %d, trace has %d", cls, res.ClassCounts[cls], n)
		}
	}
	if res.Instructions != uint64(tr.Len()) {
		t.Errorf("instructions %d, trace %d", res.Instructions, tr.Len())
	}
}
