package emu

import (
	"math/rand"
	"testing"

	"racesim/internal/isa"
)

func TestShiftSemantics(t *testing.T) {
	m, _ := run(t, `
		movz x1, #1
		movz x2, #63
		lsl x3, x1, x2     // 1 << 63
		lsr x4, x3, x2     // back to 1
		movz x5, #64
		lsl x6, x1, x5     // shift amount masked to 0
		lsli x7, x1, #4
		lsri x8, x7, #3
		halt
	`)
	if got := m.Reg(isa.X(3)); got != 1<<63 {
		t.Errorf("lsl 63 = %#x", got)
	}
	if got := m.Reg(isa.X(4)); got != 1 {
		t.Errorf("lsr back = %d", got)
	}
	if got := m.Reg(isa.X(6)); got != 1 {
		t.Errorf("shift by 64 should mask to 0, got %#x", got)
	}
	if got := m.Reg(isa.X(7)); got != 16 {
		t.Errorf("lsli = %d", got)
	}
	if got := m.Reg(isa.X(8)); got != 2 {
		t.Errorf("lsri = %d", got)
	}
}

func TestBitwiseImmediates(t *testing.T) {
	m, _ := run(t, `
		movz x1, #0xFF0F
		andi x2, x1, #0x00FF
		orri x3, x1, #0x00F0
		eori x4, x1, #0xFFFF
		halt
	`)
	if got := m.Reg(isa.X(2)); got != 0x0F {
		t.Errorf("andi = %#x", got)
	}
	if got := m.Reg(isa.X(3)); got != 0xFFFF {
		t.Errorf("orri = %#x", got)
	}
	if got := m.Reg(isa.X(4)); got != 0x00F0 {
		t.Errorf("eori = %#x", got)
	}
}

func TestNarrowLoadsZeroExtend(t *testing.T) {
	m, _ := run(t, `
		.equ BUF, 0x40000
		la x1, BUF
		movz x2, #0xFFFF
		movk x2, #0xFFFF, lsl #16
		strx x2, [x1, #0]
		ldrb x3, [x1, #0]
		ldrw x4, [x1, #0]
		halt
	`)
	if got := m.Reg(isa.X(3)); got != 0xFF {
		t.Errorf("ldrb = %#x, want 0xFF", got)
	}
	if got := m.Reg(isa.X(4)); got != 0xFFFFFFFF {
		t.Errorf("ldrw = %#x, want 0xFFFFFFFF", got)
	}
}

func TestNegativeMemOffsets(t *testing.T) {
	m, _ := run(t, `
		.equ BUF, 0x40100
		la x1, BUF
		movz x2, #77
		strx x2, [x1, #-8]
		ldrx x3, [x1, #-8]
		halt
	`)
	if got := m.Reg(isa.X(3)); got != 77 {
		t.Errorf("negative offset round trip = %d", got)
	}
}

func TestFCVTZSNegative(t *testing.T) {
	m, _ := run(t, `
		movz x1, #0
		subi x1, x1, #5   // -5
		scvtf v1, x1
		fcvtzs x2, v1
		halt
	`)
	if got := int64(m.Reg(isa.X(2))); got != -5 {
		t.Errorf("fcvtzs(-5.0) = %d", got)
	}
}

func TestVMULLanes(t *testing.T) {
	m, _ := run(t, `
		.equ BUF, 0x40200
		la x1, BUF
		ldrv v1, [x1, #0]
		ldrv v2, [x1, #8]
		vmul v3, v1, v2
		strv v3, [x1, #16]
		halt
		.data BUF
		.word 6
		.word 7
		.word 3
		.word 5
	`)
	got := m.Load(0x40210, 8)
	if uint32(got) != 18 || uint32(got>>32) != 35 {
		t.Errorf("vmul lanes = [%d,%d], want [18,35]", uint32(got), uint32(got>>32))
	}
}

func TestBranchConditionMatrix(t *testing.T) {
	// For (a, b) pairs, check every condition fires exactly as signed
	// comparison dictates.
	cases := []struct {
		a, b int64
	}{{1, 2}, {2, 1}, {3, 3}, {-4, 2}, {2, -4}, {-1, -1}, {-5, -2}}
	for _, c := range cases {
		m, _ := run(t, buildCondProbe(c.a, c.b))
		bits := m.Reg(isa.X(15))
		check := func(bit uint, want bool, name string) {
			got := bits&(1<<bit) != 0
			if got != want {
				t.Errorf("(%d,%d) %s = %v, want %v", c.a, c.b, name, got, want)
			}
		}
		check(0, c.a == c.b, "eq")
		check(1, c.a != c.b, "ne")
		check(2, c.a < c.b, "lt")
		check(3, c.a >= c.b, "ge")
		check(4, c.a > c.b, "gt")
		check(5, c.a <= c.b, "le")
	}
}

func buildCondProbe(a, b int64) string {
	// Loads a and b (possibly negative) and sets one bit in x15 per
	// condition that evaluates true.
	mk := func(v int64, reg string) string {
		if v >= 0 {
			return "movz " + reg + ", #" + itoa(v) + "\n"
		}
		return "movz " + reg + ", #0\nsubi " + reg + ", " + reg + ", #" + itoa(-v) + "\n"
	}
	src := mk(a, "x1") + mk(b, "x2") + "movz x15, #0\ncmp x1, x2\n"
	conds := []string{"eq", "ne", "lt", "ge", "gt", "le"}
	for i, c := range conds {
		src += "b." + c + " yes" + itoa(int64(i)) + "\n"
		src += "b no" + itoa(int64(i)) + "\n"
		src += "yes" + itoa(int64(i)) + ":\n"
		src += "orri x15, x15, #" + itoa(1<<i) + "\n"
		src += "no" + itoa(int64(i)) + ":\n"
	}
	return src + "halt\n"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

// TestLoadStoreMatchByteWiseMemory drives Load and Store with random
// accesses of every size — clustered on a few pages so the last-page hint
// is hit, missed and replaced, and crossing page ends so the straddling
// path runs — against a byte-per-address map, the memory model they
// replaced. Loads of memory never stored to read zero and map no page.
func TestLoadStoreMatchByteWiseMemory(t *testing.T) {
	m := New(&isa.Program{})
	ref := map[uint64]byte{}
	rng := rand.New(rand.NewSource(1))
	bases := []uint64{0x1000, 0x2000, 0x7000, 0xFFFF_FFFF_FFFF_F000, 0}
	for i := 0; i < 20000; i++ {
		size := []uint8{1, 4, 8}[rng.Intn(3)]
		// Offsets reach 7 bytes short of the page end and past it.
		addr := bases[rng.Intn(len(bases))] + pageSize - 12 + uint64(rng.Intn(24))
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			m.Store(addr, size, v)
			for b := uint8(0); b < size; b++ {
				ref[addr+uint64(b)] = byte(v >> (8 * b))
			}
			continue
		}
		var want uint64
		for b := uint8(0); b < size; b++ {
			want |= uint64(ref[addr+uint64(b)]) << (8 * b)
		}
		if got := m.Load(addr, size); got != want {
			t.Fatalf("access %d: Load(%#x, %d) = %#x, want %#x", i, addr, size, got, want)
		}
	}
	pages := len(m.mem)
	if got := m.Load(0x9000_0ffc, 8); got != 0 {
		t.Errorf("load of untouched memory = %#x, want 0", got)
	}
	if len(m.mem) != pages {
		t.Errorf("a load mapped %d pages", len(m.mem)-pages)
	}
}
