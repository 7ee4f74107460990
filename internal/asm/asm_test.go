package asm

import (
	"strings"
	"testing"

	"racesim/internal/isa"
)

func TestAssembleBasicProgram(t *testing.T) {
	p, err := Assemble(`
		.org 0x1000
		start:
			movz x1, #10
			movz x2, #0
		loop:
			add x2, x2, x1
			subi x1, x1, #1
			cbnz x1, loop
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0x1000 {
		t.Errorf("entry = %#x, want 0x1000", p.Entry)
	}
	if len(p.Code) != 6 {
		t.Fatalf("code words = %d, want 6", len(p.Code))
	}
	if got := p.Symbols["loop"]; got != 0x1008 {
		t.Errorf("loop = %#x, want 0x1008", got)
	}
	// cbnz at 0x1010 targets loop at 0x1008: word offset -2.
	var d isa.Decoder
	in, err := d.Decode(0x1010, p.Code[4])
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.OpCBNZ || in.Imm != -2 {
		t.Errorf("cbnz decoded %v imm=%d, want imm=-2", in.Op, in.Imm)
	}
}

func TestAssembleDataSegments(t *testing.T) {
	p, err := Assemble(`
		.equ BASE, 0x20000
		.org 0x1000
			la x1, BASE
			ldrx x2, [x1, #8]
			halt
		.data BASE
			.quad 0x1122334455667788
			.quad 42
			.space 16, 0xAB
			.word 7
			.byte 1
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 1 {
		t.Fatalf("segments = %d, want 1", len(p.Data))
	}
	seg := p.Data[0]
	if seg.Addr != 0x20000 {
		t.Errorf("segment addr = %#x", seg.Addr)
	}
	if len(seg.Data) != 8+8+16+4+1 {
		t.Errorf("segment size = %d, want 37", len(seg.Data))
	}
	if seg.Data[0] != 0x88 || seg.Data[7] != 0x11 {
		t.Errorf("little-endian quad wrong: % x", seg.Data[:8])
	}
	if seg.Data[16] != 0xAB || seg.Data[31] != 0xAB {
		t.Errorf("space fill wrong: % x", seg.Data[16:32])
	}
}

func TestAssembleMemOperands(t *testing.T) {
	p, err := Assemble(`
		ldrx x1, [x2]
		ldrx x1, [x2, #-16]
		ldrxr x1, [x2, x3]
		strw x4, [x5, #12]
		ldrv v1, [x2, #8]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	var d isa.Decoder
	in, _ := d.Decode(0, p.Code[1])
	if in.Imm != -16 {
		t.Errorf("negative offset = %d", in.Imm)
	}
	in, _ = d.Decode(0, p.Code[2])
	if in.Op != isa.OpLDRXR || len(in.Srcs()) != 2 {
		t.Errorf("ldrxr decode: %v", in)
	}
	in, _ = d.Decode(0, p.Code[4])
	if in.Op != isa.OpLDRV || in.Dsts()[0] != isa.V(1) {
		t.Errorf("ldrv decode: %v", in)
	}
}

func TestAssembleCondBranches(t *testing.T) {
	p, err := Assemble(`
		top:
			cmp x1, x2
			b.ne top
			b.eq top
			b.lt top
			b.ge done
			b.gt done
			b.le done
		done:
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	var d isa.Decoder
	wantConds := []isa.Cond{isa.CondNE, isa.CondEQ, isa.CondLT, isa.CondGE, isa.CondGT, isa.CondLE}
	for i, wc := range wantConds {
		in, _ := d.Decode(0, p.Code[i+1])
		if in.Op != isa.OpBCC || in.Cond != wc {
			t.Errorf("branch %d: op %v cond %v, want bcc %v", i, in.Op, in.Cond, wc)
		}
	}
}

func TestAssemblePseudoOps(t *testing.T) {
	p, err := Assemble(`
		mov x1, x2
		mov x3, #99
		la x4, 0x12345678
		mov v1, v2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	var d isa.Decoder
	in, _ := d.Decode(0, p.Code[0])
	if in.Op != isa.OpORR || in.Srcs()[0] != isa.X(2) {
		t.Errorf("mov reg: %v", in)
	}
	in, _ = d.Decode(0, p.Code[1])
	if in.Op != isa.OpMOVZ || in.Imm != 99 {
		t.Errorf("mov imm: %v", in)
	}
	in, _ = d.Decode(0, p.Code[2])
	if in.Op != isa.OpMOVZ || in.Imm != 0x5678 {
		t.Errorf("la low: %v imm=%#x", in.Op, in.Imm)
	}
	in, _ = d.Decode(0, p.Code[3])
	if in.Op != isa.OpMOVK || in.Imm != 0x1234<<16 {
		t.Errorf("la high: %v imm=%#x", in.Op, in.Imm)
	}
	in, _ = d.Decode(0, p.Code[4])
	if in.Op != isa.OpFMOV {
		t.Errorf("mov vec: %v", in.Op)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"bogus x1, x2", "unknown mnemonic"},
		{"add x1, x2", "wants 3 operands"},
		{"add x1, x2, x99", "invalid register"},
		{"addi x1, x2, #70000", "out of 16-bit range"},
		{"b nowhere", "undefined symbol"},
		{"x: halt\nx: halt", "duplicate label"},
		{".data 0x1000\nadd x1, x2, x3", "instruction inside .data"},
		{".bogus 1", "unknown directive"},
		{"ldrx x1, [x2, x3]", "does not take a register offset"},
		{"ldrxr x1, [x2, #8]", "needs a register offset"},
		{".data 0x1000\n.space", ".space N [, fill]"},
		{".data 0x1000\n.space -1", "reserves 0 to"},
		{".data 0x1000\n.space 0x1000000\n.space 1", "reserves 0 to"},
		{"ldrx x1, [x2, #4096]", "out of 13-bit range"},
		{"b 170000000", "out of 26-bit range"},
		{"b.eq 0x2000000", "out of 22-bit range"},
		{"cbz x1, 0x1000000", "out of 21-bit range"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Assemble(%q) error = %v, want containing %q", c.src, err, c.frag)
		}
	}
}

func TestAssembleEquArithmetic(t *testing.T) {
	p, err := Assemble(`
		.equ N, 64
		.equ STRIDE, 8
		movz x1, #N
		addi x2, x1, #N+STRIDE
		addi x3, x1, #N-8
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	var d isa.Decoder
	in, _ := d.Decode(0, p.Code[1])
	if in.Imm != 72 {
		t.Errorf("N+STRIDE = %d, want 72", in.Imm)
	}
	in, _ = d.Decode(0, p.Code[2])
	if in.Imm != 56 {
		t.Errorf("N-8 = %d, want 56", in.Imm)
	}
}
