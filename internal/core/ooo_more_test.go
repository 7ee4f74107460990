package core

import (
	"testing"

	"racesim/internal/trace"
)

func TestOoORetireWidthBoundsIPC(t *testing.T) {
	tr := record(t, independentALU(500))
	wide := oooCfg()
	wide.RetireWidth = 4
	wide.DispatchWidth = 4
	narrow := oooCfg()
	narrow.RetireWidth = 2
	narrow.DispatchWidth = 4
	w := run(t, wide, tr)
	n := run(t, narrow, tr)
	if n.CPI() <= w.CPI() {
		t.Errorf("retire width 2 CPI %.3f should exceed width 4 CPI %.3f", n.CPI(), w.CPI())
	}
	// IPC can never exceed the retire width.
	if w.IPC() > 4.01 {
		t.Errorf("IPC %.2f exceeds retire width", w.IPC())
	}
	if n.IPC() > 2.01 {
		t.Errorf("IPC %.2f exceeds retire width 2", n.IPC())
	}
}

func TestOoOLoadQueueBounds(t *testing.T) {
	tr := record(t, strideMisses())
	big := oooCfg()
	big.LQEntries = 64
	big.MSHRs = 24
	small := oooCfg()
	small.LQEntries = 4
	small.MSHRs = 24
	bigRes := run(t, big, tr)
	smallRes := run(t, small, tr)
	if smallRes.CPI() <= bigRes.CPI() {
		t.Errorf("4-entry LQ CPI %.3f should exceed 64-entry %.3f", smallRes.CPI(), bigRes.CPI())
	}
}

func TestOoOBranchRecoveryCost(t *testing.T) {
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
	small := oooCfg()
	small.FrontEnd.MispredictPenalty = 6
	big := oooCfg()
	big.FrontEnd.MispredictPenalty = 30
	if a, b := run(t, small, tr).CPI(), run(t, big, tr).CPI(); b <= a {
		t.Errorf("OoO penalty 30 CPI %.3f should exceed penalty 6 CPI %.3f", b, a)
	}
}

func TestOoOFasterThanInOrderOnMixedWorkload(t *testing.T) {
	// A realistic mix: loads + compute with moderate ILP. The OoO core
	// with bigger window should clearly win.
	src := `
		.equ BUF, 0x80000
		movz x9, #4000
		la x1, BUF
	loop:
		ldrx x2, [x1, #0]
		addi x3, x3, #1
		mul x4, x3, x2
		add x5, x5, x4
		ldrx x6, [x1, #64]
		add x7, x7, x6
		addi x1, x1, #128
		andi x1, x1, #0xFFFF
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`
	tr := record(t, src)
	ino := run(t, inorderCfg(), tr)
	ooo := run(t, oooCfg(), tr)
	if ooo.CPI() >= ino.CPI() {
		t.Errorf("OoO CPI %.3f should beat in-order %.3f on a mixed workload", ooo.CPI(), ino.CPI())
	}
}

func TestModelsAcceptEmptyTrace(t *testing.T) {
	empty := (&trace.Trace{Name: "empty"}).Decoded(false)
	res, err := replay(inorderCfg(), empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 0 || res.Cycles != 0 {
		t.Errorf("empty trace produced %+v", res)
	}
	if _, err := replay(oooCfg(), empty, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidWordInTraceFails(t *testing.T) {
	bad := trace.New("bad", false, trace.Event{PC: 0x1000, Word: 0xFFFFFFFF})
	if _, err := replay(inorderCfg(), bad.Decoded(false), nil); err == nil {
		t.Error("invalid word accepted by the timing model")
	}
}
