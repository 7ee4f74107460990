package isa

import (
	"strings"
	"testing"
)

// FuzzDecode feeds the decoder whatever words a trace holds: a trace file
// read from disk carries arbitrary words, and each is decoded before it is
// replayed. Under either decoder variant Decode must never panic, the two
// variants must agree on whether a word decodes and on its opcode and
// class (the dependency bug only drops an operand), and every word that
// decodes must disassemble to text, not to the "?" of an unknown opcode.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, pc uint64, word uint32) {
		in, err := Decoder{}.Decode(pc, word)
		bug, bugErr := Decoder{DepBug: true}.Decode(pc, word)
		if (err == nil) != (bugErr == nil) {
			t.Fatalf("word %#08x: correct decoder error %v, buggy decoder error %v", word, err, bugErr)
		}
		if err != nil {
			return
		}
		if bug.Op != in.Op || bug.Cls != in.Cls {
			t.Fatalf("word %#08x: correct decoder %s (%s), buggy decoder %s (%s)", word, in.Op, in.Cls, bug.Op, bug.Cls)
		}
		text, err := Disassemble(pc, word)
		if err != nil {
			t.Fatalf("word %#08x decodes to %s but does not disassemble: %v", word, in.Op, err)
		}
		if strings.HasPrefix(text, "?") {
			t.Fatalf("word %#08x decodes to %s but disassembles to %q", word, in.Op, text)
		}
	})
}
