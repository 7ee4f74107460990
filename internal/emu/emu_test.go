package emu

import (
	"errors"
	"testing"

	"racesim/internal/asm"
	"racesim/internal/isa"
)

func run(t *testing.T, src string) (*Machine, []isa.Inst) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	var tr []isa.Inst
	if err := m.Run(1_000_000, func(in isa.Inst) { tr = append(tr, in) }); err != nil {
		t.Fatal(err)
	}
	return m, tr
}

func TestArithmeticLoop(t *testing.T) {
	m, tr := run(t, `
		movz x1, #10
		movz x2, #0
	loop:
		add x2, x2, x1
		subi x1, x1, #1
		cbnz x1, loop
		halt
	`)
	if got := m.Reg(isa.X(2)); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if len(tr) != 2+3*10 {
		t.Errorf("trace length = %d, want 32", len(tr))
	}
}

func TestFlagsAndConditions(t *testing.T) {
	m, _ := run(t, `
		movz x1, #5
		movz x2, #7
		movz x9, #0
		cmp x1, x2
		b.lt less
		movz x9, #1
	less:
		cmp x2, x1
		b.le wrong
		addi x9, x9, #100
	wrong:
		halt
	`)
	if got := m.Reg(isa.X(9)); got != 100 {
		t.Errorf("x9 = %d, want 100 (lt taken, le not taken)", got)
	}
}

func TestSignedCompare(t *testing.T) {
	// -1 < 1 signed.
	m, _ := run(t, `
		movz x1, #0
		subi x1, x1, #1   // x1 = -1
		movz x2, #1
		movz x9, #0
		cmp x1, x2
		b.ge done
		movz x9, #42
	done:
		halt
	`)
	if got := m.Reg(isa.X(9)); got != 42 {
		t.Errorf("x9 = %d, want 42 (signed -1 < 1)", got)
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m, tr := run(t, `
		.equ BUF, 0x40000
		la x1, BUF
		movz x2, #0xABC
		strx x2, [x1, #16]
		ldrx x3, [x1, #16]
		strw x2, [x1, #32]
		ldrw x4, [x1, #32]
		strb x2, [x1, #40]
		ldrb x5, [x1, #40]
		halt
	`)
	if m.Reg(isa.X(3)) != 0xABC {
		t.Errorf("x3 = %#x", m.Reg(isa.X(3)))
	}
	if m.Reg(isa.X(4)) != 0xABC {
		t.Errorf("x4 = %#x", m.Reg(isa.X(4)))
	}
	if m.Reg(isa.X(5)) != 0xBC {
		t.Errorf("x5 = %#x, want 0xBC (byte)", m.Reg(isa.X(5)))
	}
	// Effective addresses recorded in the trace.
	var addrs []uint64
	for _, in := range tr {
		if in.Cls.IsMem() {
			addrs = append(addrs, in.MemAddr)
		}
	}
	want := []uint64{0x40010, 0x40010, 0x40020, 0x40020, 0x40028, 0x40028}
	if len(addrs) != len(want) {
		t.Fatalf("mem ops = %d, want %d", len(addrs), len(want))
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("addr[%d] = %#x, want %#x", i, addrs[i], want[i])
		}
	}
}

func TestInitializedData(t *testing.T) {
	m, _ := run(t, `
		.equ TAB, 0x50000
		la x1, TAB
		ldrx x2, [x1, #0]
		ldrx x3, [x1, #8]
		halt
		.data TAB
		.quad 1234
		.quad 5678
	`)
	if m.Reg(isa.X(2)) != 1234 || m.Reg(isa.X(3)) != 5678 {
		t.Errorf("loaded %d, %d; want 1234, 5678", m.Reg(isa.X(2)), m.Reg(isa.X(3)))
	}
}

func TestUninitializedMemoryReadsZero(t *testing.T) {
	m, _ := run(t, `
		la x1, 0x90000
		ldrx x2, [x1, #0]
		halt
	`)
	if m.Reg(isa.X(2)) != 0 {
		t.Errorf("uninitialized load = %#x, want 0", m.Reg(isa.X(2)))
	}
}

func TestFloatingPoint(t *testing.T) {
	m, _ := run(t, `
		movz x1, #3
		movz x2, #4
		scvtf v1, x1
		scvtf v2, x2
		fmul v3, v1, v2    // 12
		fadd v4, v3, v1    // 15
		fdiv v5, v4, v1    // 5
		fsqrt v6, v5       // sqrt(5)
		fcvtzs x3, v4      // 15
		fsub v7, v4, v3    // 3
		fcmp v7, v1        // equal
		movz x9, #0
		b.ne done
		movz x9, #1
	done:
		halt
	`)
	if got := m.Reg(isa.X(3)); got != 15 {
		t.Errorf("fcvtzs = %d, want 15", got)
	}
	if got := m.VReg(isa.V(5)); got != 5 {
		t.Errorf("fdiv = %v, want 5", got)
	}
	if got := m.Reg(isa.X(9)); got != 1 {
		t.Errorf("fcmp equality branch failed, x9 = %d", got)
	}
}

func TestCallReturn(t *testing.T) {
	m, tr := run(t, `
		movz x1, #1
		bl fn
		addi x1, x1, #100
		halt
	fn:
		addi x1, x1, #10
		ret
	`)
	if got := m.Reg(isa.X(1)); got != 111 {
		t.Errorf("x1 = %d, want 111", got)
	}
	var sawCall, sawRet bool
	for _, in := range tr {
		if in.Cls == isa.ClassCall && in.Taken {
			sawCall = true
		}
		if in.Cls == isa.ClassRet && in.Taken {
			sawRet = true
			if in.Target != 0x1008 {
				t.Errorf("ret target = %#x, want 0x1008", in.Target)
			}
		}
	}
	if !sawCall || !sawRet {
		t.Error("call/ret not observed in trace")
	}
}

func TestIndirectBranch(t *testing.T) {
	m, tr := run(t, `
		la x5, case1
		br x5
		movz x9, #1   // skipped
	case1:
		movz x9, #7
		halt
	`)
	if got := m.Reg(isa.X(9)); got != 7 {
		t.Errorf("x9 = %d, want 7", got)
	}
	found := false
	for _, in := range tr {
		if in.Cls == isa.ClassBranchInd {
			found = true
			if !in.Taken {
				t.Error("br should be taken")
			}
		}
	}
	if !found {
		t.Error("no indirect branch in trace")
	}
}

func TestDivideByZero(t *testing.T) {
	m, _ := run(t, `
		movz x1, #10
		movz x2, #0
		sdiv x3, x1, x2
		halt
	`)
	if got := m.Reg(isa.X(3)); got != 0 {
		t.Errorf("div by zero = %d, want 0 (AArch64 semantics)", got)
	}
}

func TestMovzMovkComposition(t *testing.T) {
	m, _ := run(t, `
		movz x1, #0x1111
		movk x1, #0x2222, lsl #16
		movk x1, #0x3333, lsl #32
		movk x1, #0x4444, lsl #48
		halt
	`)
	if got := m.Reg(isa.X(1)); got != 0x4444333322221111 {
		t.Errorf("x1 = %#x", got)
	}
}

func TestInstructionBudget(t *testing.T) {
	p, err := asm.Assemble(`
	spin:
		b spin
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if err := m.Run(100, nil); !errors.Is(err, ErrMaxInstructions) {
		t.Errorf("err = %v, want ErrMaxInstructions", err)
	}
	if m.icount != 100 {
		t.Errorf("icount = %d, want 100", m.icount)
	}
}

func TestPCOutOfRange(t *testing.T) {
	p, err := asm.Assemble(`nop`) // runs off the end of code
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if err := m.Run(10, nil); err == nil {
		t.Error("expected fetch error running past code end")
	}
}

func TestSIMDLanes(t *testing.T) {
	m, _ := run(t, `
		.equ BUF, 0x60000
		la x1, BUF
		ldrv v1, [x1, #0]
		ldrv v2, [x1, #8]
		vadd v3, v1, v2
		vmul v4, v1, v2
		strv v3, [x1, #16]
		halt
		.data BUF
		.word 3
		.word 5
		.word 10
		.word 20
	`)
	// lanes: v1 = [3,5], v2 = [10,20] -> add [13,25], mul [30,100]
	got := m.Load(0x60010, 8)
	if uint32(got) != 13 || uint32(got>>32) != 25 {
		t.Errorf("vadd lanes = [%d,%d], want [13,25]", uint32(got), uint32(got>>32))
	}
}
