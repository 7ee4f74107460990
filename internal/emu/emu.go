// Package emu implements the functional emulator for the racesim ISA. It
// plays the role of the paper's dynamic binary instrumentation front-end
// (DynamoRIO): it executes a program architecturally and hands every
// retired instruction — with its effective address and branch outcome — to
// a tracer hook, from which SIFT-style traces are recorded.
//
// The emulator always decodes correctly; decoder defects only ever affect
// the timing side (see isa.Decoder.DepBug).
package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"racesim/internal/isa"
)

// ErrMaxInstructions is returned by Run when the instruction budget is
// exhausted before the program halts.
var ErrMaxInstructions = errors.New("emu: instruction budget exhausted")

const pageBits = 12
const pageSize = 1 << pageBits

// Tracer receives every retired instruction in program order.
type Tracer func(isa.Inst)

// Machine is the architectural state of one hardware thread.
type Machine struct {
	prog       *isa.Program
	regs       [32]uint64 // X0..X30; index 31 is the zero register
	vregs      [32]uint64 // V0..V31 as raw float64 bits
	n, z, c, v bool       // NZCV flags
	mem        map[uint64][]byte
	// hintBase and hintPage are the page of the last access that found or
	// made one (hintPage nil: none yet): consecutive accesses mostly stay
	// on a page, and then cost no map lookup.
	hintBase uint64
	hintPage []byte
	pc       uint64
	icount   uint64
	dec      isa.Decoder
}

// New creates a machine loaded with prog: PC at the entry point, data
// segments copied into memory, registers zeroed.
func New(prog *isa.Program) *Machine {
	m := &Machine{prog: prog, mem: make(map[uint64][]byte), pc: prog.Entry}
	for _, seg := range prog.Data {
		// Copy whole pages at a time: one page lookup per page touched
		// instead of one per byte.
		addr, data := seg.Addr, seg.Data
		for len(data) > 0 {
			n := copy(m.page(addr)[addr&(pageSize-1):], data)
			addr += uint64(n)
			data = data[n:]
		}
	}
	return m
}

// Reg returns the value of general-purpose register r.
func (m *Machine) Reg(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return m.regs[r]
}

// SetReg sets general-purpose register r.
func (m *Machine) SetReg(r isa.Reg, v uint64) {
	if r != isa.XZR {
		m.regs[r] = v
	}
}

// VReg returns FP register r (an isa.V index) as a float64.
func (m *Machine) VReg(r isa.Reg) float64 {
	return math.Float64frombits(m.vregs[r-isa.V0])
}

// SetVReg sets FP register r to the float64 v.
func (m *Machine) SetVReg(r isa.Reg, v float64) {
	m.vregs[r-isa.V0] = math.Float64bits(v)
}

// mapped returns the page numbered base, or nil if nothing was ever stored
// there (such memory reads as zero).
func (m *Machine) mapped(base uint64) []byte {
	if m.hintPage != nil && m.hintBase == base {
		return m.hintPage
	}
	p := m.mem[base]
	if p != nil {
		m.hintBase, m.hintPage = base, p
	}
	return p
}

// page returns the page holding addr, making it if need be.
func (m *Machine) page(addr uint64) []byte {
	base := addr >> pageBits
	p := m.mapped(base)
	if p == nil {
		p = make([]byte, pageSize)
		m.mem[base] = p
		m.hintBase, m.hintPage = base, p
	}
	return p
}

// Load reads size bytes little-endian at addr: one page lookup, unless the
// access straddles a page and goes byte by byte.
func (m *Machine) Load(addr uint64, size uint8) uint64 {
	off := addr & (pageSize - 1)
	if off+uint64(size) > pageSize {
		var v uint64
		for i := uint8(0); i < size; i++ {
			v |= m.Load(addr+uint64(i), 1) << (8 * i)
		}
		return v
	}
	p := m.mapped(addr >> pageBits)
	if p == nil {
		return 0
	}
	switch b := p[off : off+uint64(size)]; size {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		var v uint64
		for i, x := range b {
			v |= uint64(x) << (8 * i)
		}
		return v
	}
}

// Store writes the low size bytes of v little-endian at addr, with one
// page lookup unless the access straddles a page.
func (m *Machine) Store(addr uint64, size uint8, v uint64) {
	off := addr & (pageSize - 1)
	if off+uint64(size) > pageSize {
		for i := uint8(0); i < size; i++ {
			m.Store(addr+uint64(i), 1, v>>(8*i))
		}
		return
	}
	switch b := m.page(addr)[off : off+uint64(size)]; size {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// Run executes until HALT, an error, or maxInst retired instructions. The
// tracer (may be nil) sees every retired instruction. Run returns
// ErrMaxInstructions if the budget ran out.
func (m *Machine) Run(maxInst uint64, tracer Tracer) error {
	for m.icount < maxInst {
		word, err := m.prog.FetchWord(m.pc)
		if err != nil {
			return err
		}
		in, err := m.dec.Decode(m.pc, word)
		if err != nil {
			return err
		}
		if in.Op == isa.OpHALT {
			return nil
		}
		if err := m.exec(&in); err != nil {
			return err
		}
		m.icount++
		if tracer != nil {
			tracer(in)
		}
		m.pc = in.NextPC()
	}
	return ErrMaxInstructions
}

func (m *Machine) setSubFlags(a, b uint64) {
	r := a - b
	m.n = int64(r) < 0
	m.z = r == 0
	m.c = a >= b
	m.v = (int64(a) >= 0) != (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0)
}

func (m *Machine) condHolds(c isa.Cond) bool {
	switch c {
	case isa.CondEQ:
		return m.z
	case isa.CondNE:
		return !m.z
	case isa.CondLT:
		return m.n != m.v
	case isa.CondGE:
		return m.n == m.v
	case isa.CondGT:
		return !m.z && m.n == m.v
	case isa.CondLE:
		return m.z || m.n != m.v
	case isa.CondAL:
		return true
	}
	return false
}

func (m *Machine) exec(in *isa.Inst) error {
	word := in.Word
	rd := isa.Reg(word >> 21 & 0x1F)
	rn := isa.Reg(word >> 16 & 0x1F)
	rm := isa.Reg(word >> 11 & 0x1F)

	switch in.Op {
	case isa.OpADD:
		m.SetReg(rd, m.Reg(rn)+m.Reg(rm))
	case isa.OpSUB:
		m.SetReg(rd, m.Reg(rn)-m.Reg(rm))
	case isa.OpAND:
		m.SetReg(rd, m.Reg(rn)&m.Reg(rm))
	case isa.OpORR:
		m.SetReg(rd, m.Reg(rn)|m.Reg(rm))
	case isa.OpEOR:
		m.SetReg(rd, m.Reg(rn)^m.Reg(rm))
	case isa.OpLSL:
		m.SetReg(rd, m.Reg(rn)<<(m.Reg(rm)&63))
	case isa.OpLSR:
		m.SetReg(rd, m.Reg(rn)>>(m.Reg(rm)&63))
	case isa.OpMUL:
		m.SetReg(rd, m.Reg(rn)*m.Reg(rm))
	case isa.OpSDIV:
		d := int64(m.Reg(rm))
		if d == 0 {
			m.SetReg(rd, 0) // AArch64 semantics: divide by zero yields zero
		} else {
			m.SetReg(rd, uint64(int64(m.Reg(rn))/d))
		}
	case isa.OpCMP:
		m.setSubFlags(m.Reg(rn), m.Reg(rm))

	case isa.OpADDI:
		m.SetReg(rd, m.Reg(rn)+uint64(in.Imm))
	case isa.OpSUBI:
		m.SetReg(rd, m.Reg(rn)-uint64(in.Imm))
	case isa.OpANDI:
		m.SetReg(rd, m.Reg(rn)&uint64(in.Imm))
	case isa.OpORRI:
		m.SetReg(rd, m.Reg(rn)|uint64(in.Imm))
	case isa.OpEORI:
		m.SetReg(rd, m.Reg(rn)^uint64(in.Imm))
	case isa.OpLSLI:
		m.SetReg(rd, m.Reg(rn)<<(uint64(in.Imm)&63))
	case isa.OpLSRI:
		m.SetReg(rd, m.Reg(rn)>>(uint64(in.Imm)&63))
	case isa.OpCMPI:
		m.setSubFlags(m.Reg(rn), uint64(in.Imm))
	case isa.OpMOVZ:
		m.SetReg(rd, uint64(in.Imm))
	case isa.OpMOVK:
		hw := word >> 16 & 0x3
		mask := uint64(0xFFFF) << (16 * hw)
		m.SetReg(rd, m.Reg(rd)&^mask|uint64(in.Imm))

	case isa.OpFADD:
		m.SetVReg(isa.V0+rd, m.VReg(isa.V0+rn)+m.VReg(isa.V0+rm))
	case isa.OpFSUB:
		m.SetVReg(isa.V0+rd, m.VReg(isa.V0+rn)-m.VReg(isa.V0+rm))
	case isa.OpFMUL:
		m.SetVReg(isa.V0+rd, m.VReg(isa.V0+rn)*m.VReg(isa.V0+rm))
	case isa.OpFDIV:
		m.SetVReg(isa.V0+rd, m.VReg(isa.V0+rn)/m.VReg(isa.V0+rm))
	case isa.OpFSQRT:
		m.SetVReg(isa.V0+rd, math.Sqrt(m.VReg(isa.V0+rn)))
	case isa.OpFMOV:
		m.vregs[rd] = m.vregs[rn]
	case isa.OpFCMP:
		a, b := m.VReg(isa.V0+rn), m.VReg(isa.V0+rm)
		m.z = a == b
		m.n = a < b
		m.c = a >= b
		m.v = math.IsNaN(a) || math.IsNaN(b)
	case isa.OpFCVTZS:
		m.SetReg(rd, uint64(int64(m.VReg(isa.V0+rn))))
	case isa.OpSCVTF:
		m.SetVReg(isa.V0+rd, float64(int64(m.Reg(rn))))

	case isa.OpVADD: // two 32-bit lanes
		a, b := m.vregs[rn], m.vregs[rm]
		lo := uint64(uint32(a) + uint32(b))
		hi := uint64(uint32(a>>32)+uint32(b>>32)) << 32
		m.vregs[rd] = hi | lo
	case isa.OpVMUL:
		a, b := m.vregs[rn], m.vregs[rm]
		lo := uint64(uint32(a) * uint32(b))
		hi := uint64(uint32(a>>32)*uint32(b>>32)) << 32
		m.vregs[rd] = hi | lo

	case isa.OpLDRB, isa.OpLDRW, isa.OpLDRX:
		in.MemAddr = m.Reg(rn) + uint64(in.Imm)
		m.SetReg(rd, m.Load(in.MemAddr, in.MemSize))
	case isa.OpLDRV:
		in.MemAddr = m.Reg(rn) + uint64(in.Imm)
		m.vregs[rd] = m.Load(in.MemAddr, 8)
	case isa.OpLDRXR:
		in.MemAddr = m.Reg(rn) + m.Reg(rm)
		m.SetReg(rd, m.Load(in.MemAddr, 8))
	case isa.OpSTRB, isa.OpSTRW, isa.OpSTRX:
		in.MemAddr = m.Reg(rn) + uint64(in.Imm)
		m.Store(in.MemAddr, in.MemSize, m.Reg(rd))
	case isa.OpSTRV:
		in.MemAddr = m.Reg(rn) + uint64(in.Imm)
		m.Store(in.MemAddr, 8, m.vregs[rd])
	case isa.OpSTRXR:
		in.MemAddr = m.Reg(rn) + m.Reg(rm)
		m.Store(in.MemAddr, 8, m.Reg(rd))

	case isa.OpB:
		in.Taken = true
		in.Target, _ = in.StaticTarget()
	case isa.OpBL:
		in.Taken = true
		in.Target, _ = in.StaticTarget()
		m.SetReg(isa.RegLink, in.PC+isa.InstSize)
	case isa.OpBCC:
		in.Taken = m.condHolds(in.Cond)
		in.Target, _ = in.StaticTarget()
	case isa.OpCBZ:
		in.Taken = m.Reg(rd) == 0
		in.Target, _ = in.StaticTarget()
	case isa.OpCBNZ:
		in.Taken = m.Reg(rd) != 0
		in.Target, _ = in.StaticTarget()
	case isa.OpBR:
		in.Taken = true
		in.Target = m.Reg(rd)
	case isa.OpRET:
		in.Taken = true
		in.Target = m.Reg(isa.RegLink)

	case isa.OpNOP:
		// nothing
	default:
		return fmt.Errorf("emu: unimplemented opcode %v at %#x", in.Op, in.PC)
	}
	return nil
}
