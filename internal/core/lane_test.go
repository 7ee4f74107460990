package core

import "testing"

// mixedLoop builds a loop of loads, stores, multiplies, divides and a
// data-dependent branch over a buffer larger than the test L1D, so every
// part of either back end is exercised.
func mixedLoop() string {
	return `
		.equ BUF, 0x100000
		movz x9, #3000
		la x1, BUF
	loop:
		ldrx x2, [x1, #0]
		mul x3, x2, x9
		strx x3, [x1, #64]
		ldrx x6, [x1, #128]
		sdiv x7, x6, x9
		add x8, x8, x7
		addi x5, x5, #7
		lsri x4, x5, #3
		andi x4, x4, #1
		cbnz x4, skip
		strx x8, [x1, #192]
	skip:
		addi x1, x1, #256
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`
}

// TestLaneServesBothKinds resets one lane alternately to in-order and
// out-of-order configurations of different geometries over one decode:
// each Result must equal a fresh lane's, so neither back end nor the
// shared part carries anything from the other kind's replay.
func TestLaneServesBothKinds(t *testing.T) {
	d := record(t, mixedLoop()).Decoded(false)
	behav := CompileBehaviors(d.Insts)
	classes := ClassHistogram(d.IDs, behav)
	play := func(ln *lane, cfg Config) Result {
		t.Helper()
		if err := ln.reset(cfg, nil); err != nil {
			t.Fatal(err)
		}
		if cfg.Kind == InOrder {
			ln.walkInOrder(d, behav)
		} else {
			ln.walkOoO(d, behav)
		}
		return ln.finish(uint64(len(d.IDs)), &classes)
	}

	narrow := inorderCfg()
	narrow.Width, narrow.MaxMemPerCycle, narrow.StoreBufferEntries, narrow.MSHRs = 1, 1, 1, 1
	narrow.Mem.L1D.SizeKB, narrow.Mem.L1I.LineSize = 8, 32
	wide := inorderCfg()
	wide.Width, wide.MaxBranchPerCycle, wide.StoreBufferEntries, wide.MSHRs = 4, 2, 32, 8
	small := oooCfg()
	small.ROBEntries, small.IQEntries, small.LQEntries, small.SQEntries, small.MSHRs = 8, 4, 4, 4, 1
	small.Mem.L2.SizeKB = 128
	big := oooCfg()
	big.DispatchWidth, big.ROBEntries, big.IQEntries, big.LQEntries, big.SQEntries = 6, 512, 256, 128, 128
	big.Mem.L1I.LineSize = 32
	cfgs := []Config{inorderCfg(), oooCfg(), narrow, big, wide, small}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("configuration %d: %v", i, err)
		}
		want[i] = play(new(lane), cfg)
	}

	ln := new(lane)
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range cfgs {
			if got := play(ln, cfg); got != want[i] {
				t.Errorf("pass %d, configuration %d (%s): a recycled lane differs from a fresh one\n got  %+v\n want %+v",
					pass, i, cfg.Kind, got, want[i])
			}
		}
	}
	if want[0] == want[2] || want[1] == want[3] {
		t.Error("the geometries do not change the results: the test proves nothing")
	}
}
