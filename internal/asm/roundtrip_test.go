package asm

import (
	"fmt"
	"strings"
	"testing"

	"racesim/internal/isa"
)

// TestDisassembleAssembleRoundTrip checks that a program's disassembly
// re-assembles to the identical words (the disassembler emits absolute hex
// branch targets, which the assembler evaluates back to the same offsets).
func TestDisassembleAssembleRoundTrip(t *testing.T) {
	src := `
		.org 0x1000
		start:
			movz x1, #10
			movz x2, #0
			la x3, 0x40000
		loop:
			ldrx x4, [x3, #0]
			add x2, x2, x4
			strx x2, [x3, #8]
			ldrxr x5, [x3, x2]
			cmp x2, x4
			b.lt skip
			addi x2, x2, #1
		skip:
			scvtf v1, x2
			fmul v2, v1, v1
			fcmp v2, v1
			subi x1, x1, #1
			cbnz x1, loop
			bl fn
			halt
		fn:
			nop
			ret
	`
	orig, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(orig); err != nil {
		t.Fatal(err)
	}
}

// roundTrip disassembles p (isa.DisassembleProgram), assembles the listing
// again — its instructions without addresses or labels, after p's origin —
// and reports the first code word that did not come back identical.
func roundTrip(p *isa.Program) error {
	listing, err := isa.DisassembleProgram(p)
	if err != nil {
		return fmt.Errorf("disassembly: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".org %#x\n", p.Entry)
	for _, line := range strings.Split(listing, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasSuffix(line, ":") {
			continue
		}
		// Lines look like "0x001000: add x1, x2, x3".
		_, inst, ok := strings.Cut(line, ": ")
		if !ok {
			return fmt.Errorf("unparseable listing line %q", line)
		}
		b.WriteString(inst)
		b.WriteByte('\n')
	}
	re, err := Assemble(b.String())
	if err != nil {
		return fmt.Errorf("reassembly failed: %w\nsource:\n%s", err, b.String())
	}
	if len(re.Code) != len(p.Code) {
		return fmt.Errorf("reassembled %d words, want %d", len(re.Code), len(p.Code))
	}
	for i := range p.Code {
		if re.Code[i] != p.Code[i] {
			pc := p.Entry + uint64(4*i)
			origD, _ := isa.Disassemble(pc, p.Code[i])
			reD, _ := isa.Disassemble(pc, re.Code[i])
			return fmt.Errorf("word %d: %#x (%s) != %#x (%s)", i, re.Code[i], reD, p.Code[i], origD)
		}
	}
	return nil
}

// FuzzAssembleRoundTrip is TestDisassembleAssembleRoundTrip's property on
// sources nobody picked: Assemble reads whatever program text a user
// hands it and must never panic, and every program it accepts must
// disassemble and re-assemble to identical code words.
func FuzzAssembleRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		if err := roundTrip(p); err != nil {
			t.Fatal(err)
		}
	})
}
