package asm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"racesim/internal/isa"
)

// emit performs pass 2: encode instructions and build data segments.
func (a *assembler) emit(stmts []statement) (*isa.Program, error) {
	p := &isa.Program{Entry: a.org, Symbols: a.symbols}
	inData := false
	var dataCursor uint64
	segs := map[uint64][]byte{} // start address -> bytes (built sequentially)
	var segStart uint64
	pc := a.org

	appendData := func(b ...byte) {
		segs[segStart] = append(segs[segStart], b...)
		dataCursor += uint64(len(b))
	}

	for _, st := range stmts {
		switch {
		case st.label != "":
			continue
		case st.isDir:
			switch st.mnem {
			case ".org", ".equ":
				// handled in pass 1
			case ".data":
				v, _ := a.eval(st.args, st.line, 1)
				inData = true
				segStart = uint64(v[0])
				dataCursor = segStart
				if _, ok := segs[segStart]; !ok {
					segs[segStart] = nil
				}
			case ".quad":
				v, err := a.eval(st.args, st.line, 1)
				if err != nil {
					return nil, err
				}
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(v[0]))
				appendData(b[:]...)
			case ".word":
				v, err := a.eval(st.args, st.line, 1)
				if err != nil {
					return nil, err
				}
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], uint32(v[0]))
				appendData(b[:]...)
			case ".byte":
				v, err := a.eval(st.args, st.line, 1)
				if err != nil {
					return nil, err
				}
				appendData(byte(v[0]))
			case ".space":
				n, _ := a.evalExpr(st.args[0], st.line) // checked in pass 1
				fill := int64(0)
				if len(st.args) == 2 {
					var err error
					if fill, err = a.evalExpr(st.args[1], st.line); err != nil {
						return nil, err
					}
				}
				appendData(bytes.Repeat([]byte{byte(fill)}, int(n))...)
			}
		case st.isInst:
			if inData {
				return nil, &Error{st.line, "instruction inside .data section"}
			}
			words, err := a.encode(st, pc)
			if err != nil {
				return nil, err
			}
			p.Code = append(p.Code, words...)
			pc += uint64(len(words)) * isa.InstSize
		}
	}

	starts := make([]uint64, 0, len(segs))
	for s := range segs {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, s := range starts {
		if len(segs[s]) > 0 {
			p.Data = append(p.Data, isa.Segment{Addr: s, Data: segs[s]})
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("asm: internal encoding error: %w", err)
	}
	return p, nil
}

func (a *assembler) reg(s string, line int) (isa.Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "xzr":
		return isa.XZR, nil
	case "lr":
		return isa.RegLink, nil
	}
	if len(s) >= 2 && (s[0] == 'x' || s[0] == 'v') {
		var n int
		if _, err := fmt.Sscanf(s[1:], "%d", &n); err == nil {
			if s[0] == 'x' && n >= 0 && n <= 30 {
				return isa.X(n), nil
			}
			if s[0] == 'v' && n >= 0 && n <= 31 {
				return isa.V(n), nil
			}
		}
	}
	return 0, &Error{line, fmt.Sprintf("invalid register %q", s)}
}

// vnum returns the 5-bit field index for a register (V regs use their lane
// number; the opcode disambiguates the bank).
func vnum(r isa.Reg) isa.Reg {
	if r.IsVec() {
		return r - isa.V0
	}
	return r
}

// memOperand parses "[xN]", "[xN, #off]" or "[xN, xM]".
func (a *assembler) memOperand(s string, line int) (base isa.Reg, off int64, idx isa.Reg, hasIdx bool, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, 0, false, &Error{line, fmt.Sprintf("invalid memory operand %q", s)}
	}
	inner := s[1 : len(s)-1]
	parts := strings.Split(inner, ",")
	base, err = a.reg(parts[0], line)
	if err != nil {
		return 0, 0, 0, false, err
	}
	if len(parts) == 1 {
		return base, 0, 0, false, nil
	}
	if len(parts) != 2 {
		return 0, 0, 0, false, &Error{line, fmt.Sprintf("invalid memory operand %q", s)}
	}
	second := strings.TrimSpace(parts[1])
	if strings.HasPrefix(second, "#") || second == "" || second[0] == '-' || (second[0] >= '0' && second[0] <= '9') {
		off, err = a.evalExpr(second, line)
		return base, off, 0, false, err
	}
	if r, rerr := a.reg(second, line); rerr == nil {
		return base, 0, r, true, nil
	}
	off, err = a.evalExpr(second, line)
	return base, off, 0, false, err
}

// fitsSigned reports whether v fits in a two's-complement field of the
// given width: the encoders panic on what does not.
func fitsSigned(v int64, bits uint) bool {
	lim := int64(1) << (bits - 1)
	return v >= -lim && v < lim
}

var condByName = map[string]isa.Cond{
	"eq": isa.CondEQ, "ne": isa.CondNE, "lt": isa.CondLT,
	"ge": isa.CondGE, "gt": isa.CondGT, "le": isa.CondLE, "al": isa.CondAL,
}

// branchOffset returns the word offset from pc to target, which must fit
// the branch's signed offset field of the given width.
func (a *assembler) branchOffset(target string, pc uint64, bits uint, line int) (int64, error) {
	v, err := a.evalExpr(target, line)
	if err != nil {
		return 0, err
	}
	delta := v - int64(pc)
	if delta%isa.InstSize != 0 {
		return 0, &Error{line, fmt.Sprintf("branch target %#x not word aligned from %#x", v, pc)}
	}
	off := delta / isa.InstSize
	if !fitsSigned(off, bits) {
		return 0, &Error{line, fmt.Sprintf("branch target %#x out of %d-bit range from %#x", v, bits, pc)}
	}
	return off, nil
}

func (a *assembler) encode(st statement, pc uint64) ([]uint32, error) {
	mnem := st.mnem
	line := st.line
	need := func(n int) error {
		if len(st.args) != n {
			return &Error{line, fmt.Sprintf("%s wants %d operands, got %d", mnem, n, len(st.args))}
		}
		return nil
	}

	// Conditional branch aliases: b.eq etc.
	if strings.HasPrefix(mnem, "b.") {
		cond, ok := condByName[mnem[2:]]
		if !ok {
			return nil, &Error{line, fmt.Sprintf("unknown condition %q", mnem[2:])}
		}
		if err := need(1); err != nil {
			return nil, err
		}
		off, err := a.branchOffset(st.args[0], pc, 22, line)
		if err != nil {
			return nil, err
		}
		return []uint32{isa.EncBCC(cond, off)}, nil
	}

	switch mnem {
	case "mov":
		if err := need(2); err != nil {
			return nil, err
		}
		if r, err := a.reg(st.args[1], line); err == nil {
			rd, err2 := a.reg(st.args[0], line)
			if err2 != nil {
				return nil, err2
			}
			if rd.IsVec() != r.IsVec() {
				return nil, &Error{line, "mov between register banks"}
			}
			if rd.IsVec() {
				return []uint32{isa.EncR(isa.OpFMOV, vnum(rd), vnum(r), 0)}, nil
			}
			return []uint32{isa.EncR(isa.OpORR, rd, r, isa.XZR)}, nil
		}
		rd, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		v, err := a.evalExpr(st.args[1], line)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 0xFFFF {
			return nil, &Error{line, fmt.Sprintf("mov immediate %d out of 16-bit range; use la or movz/movk", v)}
		}
		return []uint32{isa.EncMov(isa.OpMOVZ, rd, uint16(v), 0)}, nil

	case "la":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		v, err := a.evalExpr(st.args[1], line)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 0xFFFFFFFF {
			return nil, &Error{line, fmt.Sprintf("la address %#x out of 32-bit range", v)}
		}
		return []uint32{
			isa.EncMov(isa.OpMOVZ, rd, uint16(v), 0),
			isa.EncMov(isa.OpMOVK, rd, uint16(v>>16), 1),
		}, nil

	case "movz", "movk":
		op := isa.OpMOVZ
		if mnem == "movk" {
			op = isa.OpMOVK
		}
		if len(st.args) != 2 && len(st.args) != 3 {
			return nil, &Error{line, mnem + " wants rd, #imm [, lsl #shift]"}
		}
		rd, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		v, err := a.evalExpr(st.args[1], line)
		if err != nil {
			return nil, err
		}
		hw := 0
		if len(st.args) == 3 {
			sh := strings.ToLower(strings.ReplaceAll(st.args[2], " ", ""))
			sh = strings.TrimPrefix(sh, "lsl")
			shv, err := a.evalExpr(sh, line)
			if err != nil {
				return nil, err
			}
			if shv%16 != 0 || shv < 0 || shv > 48 {
				return nil, &Error{line, "shift must be 0/16/32/48"}
			}
			hw = int(shv / 16)
		}
		if v < 0 || v > 0xFFFF {
			return nil, &Error{line, fmt.Sprintf("%s immediate %d out of 16-bit range", mnem, v)}
		}
		return []uint32{isa.EncMov(op, rd, uint16(v), hw)}, nil

	case "b", "bl":
		if err := need(1); err != nil {
			return nil, err
		}
		off, err := a.branchOffset(st.args[0], pc, 26, line)
		if err != nil {
			return nil, err
		}
		op := isa.OpB
		if mnem == "bl" {
			op = isa.OpBL
		}
		return []uint32{isa.EncB(op, off)}, nil

	case "cbz", "cbnz":
		if err := need(2); err != nil {
			return nil, err
		}
		rn, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		off, err := a.branchOffset(st.args[1], pc, 21, line)
		if err != nil {
			return nil, err
		}
		op := isa.OpCBZ
		if mnem == "cbnz" {
			op = isa.OpCBNZ
		}
		return []uint32{isa.EncCB(op, rn, off)}, nil

	case "br":
		if err := need(1); err != nil {
			return nil, err
		}
		rn, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		return []uint32{isa.EncBR(rn)}, nil

	case "ret":
		if err := need(0); err != nil {
			return nil, err
		}
		return []uint32{isa.EncRET()}, nil
	case "nop":
		return []uint32{isa.EncNOP()}, nil
	case "halt":
		return []uint32{isa.EncHALT()}, nil
	}

	op, ok := isa.OpByName[mnem]
	if !ok {
		return nil, &Error{line, fmt.Sprintf("unknown mnemonic %q", mnem)}
	}
	cls := isa.ClassOf(op)
	switch {
	case cls.IsMem():
		if op == isa.OpLDRXR || op == isa.OpSTRXR {
			if err := need(2); err != nil {
				return nil, err
			}
			rt, err := a.reg(st.args[0], line)
			if err != nil {
				return nil, err
			}
			base, _, idx, hasIdx, err := a.memOperand(st.args[1], line)
			if err != nil {
				return nil, err
			}
			if !hasIdx {
				return nil, &Error{line, mnem + " needs a register offset"}
			}
			return []uint32{isa.EncR(op, vnum(rt), base, idx)}, nil
		}
		if err := need(2); err != nil {
			return nil, err
		}
		rt, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		base, off, _, hasIdx, err := a.memOperand(st.args[1], line)
		if err != nil {
			return nil, err
		}
		if hasIdx {
			return nil, &Error{line, mnem + " does not take a register offset (use " + mnem + "r)"}
		}
		if !fitsSigned(off, 13) {
			return nil, &Error{line, fmt.Sprintf("memory offset %d out of 13-bit range", off)}
		}
		return []uint32{isa.EncMem(op, vnum(rt), base, off)}, nil

	case op == isa.OpFSQRT || op == isa.OpFMOV || op == isa.OpFCVTZS || op == isa.OpSCVTF:
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		rn, err := a.reg(st.args[1], line)
		if err != nil {
			return nil, err
		}
		return []uint32{isa.EncR(op, vnum(rd), vnum(rn), 0)}, nil

	case op == isa.OpCMP || op == isa.OpFCMP:
		if err := need(2); err != nil {
			return nil, err
		}
		rn, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		rm, err := a.reg(st.args[1], line)
		if err != nil {
			return nil, err
		}
		return []uint32{isa.EncR(op, 0, vnum(rn), vnum(rm))}, nil

	case op == isa.OpCMPI:
		if err := need(2); err != nil {
			return nil, err
		}
		rn, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		v, err := a.evalExpr(st.args[1], line)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 0xFFFF {
			return nil, &Error{line, fmt.Sprintf("cmpi immediate %d out of range", v)}
		}
		return []uint32{isa.EncI(op, 0, rn, uint16(v))}, nil

	case op >= isa.OpADDI && op <= isa.OpLSRI:
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		rn, err := a.reg(st.args[1], line)
		if err != nil {
			return nil, err
		}
		v, err := a.evalExpr(st.args[2], line)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 0xFFFF {
			return nil, &Error{line, fmt.Sprintf("%s immediate %d out of 16-bit range", mnem, v)}
		}
		return []uint32{isa.EncI(op, rd, rn, uint16(v))}, nil

	default: // three-register forms
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := a.reg(st.args[0], line)
		if err != nil {
			return nil, err
		}
		rn, err := a.reg(st.args[1], line)
		if err != nil {
			return nil, err
		}
		rm, err := a.reg(st.args[2], line)
		if err != nil {
			return nil, err
		}
		return []uint32{isa.EncR(op, vnum(rd), vnum(rn), vnum(rm))}, nil
	}
}
