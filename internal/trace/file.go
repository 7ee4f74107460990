package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"racesim/internal/isa"
)

// Binary format ("RIFT"):
//
//	magic   "RIFT"
//	version uvarint (currently 2)
//	flags   uvarint (bit0 = warm data)
//	name    uvarint length + bytes
//	count   uvarint (number of events)
//	events  count records, each:
//	  flags  byte      bit0 = has memory address, bit1 = branch taken,
//	                   bit2 = has branch target
//	  pc     svarint   delta from previous PC + 4 (0 for straight-line code)
//	  word   uvarint
//	  mem    svarint   delta from previous memory address (if bit0)
//	  target svarint   delta from own PC (if bit2)
//
// Deltas keep straight-line code and strided access patterns to a couple of
// bytes per instruction. Bits 0 and 2 are set exactly when the word decodes
// to a memory access and to a branch, every varint takes its shortest form
// and nothing follows the last event, so a trace has one encoding.

const magic = "RIFT"
const version = 2

// Event record flag bits.
const (
	flagMem    = 1 << 0 // has a memory address
	flagTaken  = 1 << 1 // branch taken
	flagTarget = 1 << 2 // has a branch target
)

// ErrFormat is returned when a stream is not a valid trace file.
var ErrFormat = errors.New("trace: invalid file format")

// wordFlags returns the flag bits an event's record carries for its
// instruction word, apart from flagTaken: which optional fields follow.
// They depend on the word alone, so both directions compute them once per
// distinct word.
func wordFlags(word uint32) byte {
	in, err := isa.Decoder{}.Decode(0, word)
	var f byte
	if err == nil && in.Cls.IsMem() {
		f |= flagMem
	}
	if err == nil && in.Cls.IsBranch() {
		f |= flagTarget
	}
	return f
}

// WriteTo serialises t to w, materializing t if it is deferred.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	c, err := t.content()
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	var head []byte
	head = append(head, magic...)
	head = binary.AppendUvarint(head, version)
	var flags uint64
	if t.WarmData {
		flags |= 1
	}
	head = binary.AppendUvarint(head, flags)
	head = binary.AppendUvarint(head, uint64(len(t.Name)))
	head = append(head, t.Name...)
	head = binary.AppendUvarint(head, uint64(c.len()))
	if _, err := bw.Write(head); err != nil {
		return cw.n, err
	}
	kinds := make([]byte, len(c.words))
	for id, w := range c.words {
		kinds[id] = wordFlags(w)
	}
	var prevPC, prevMem uint64
	var buf [1 + 4*binary.MaxVarintLen64]byte
	for i := range c.len() {
		pc, id := c.pc[i], c.ids[i]
		f := kinds[id]
		if c.isTaken(i) {
			f |= flagTaken
		}
		rec := append(buf[:0], f)
		rec = binary.AppendVarint(rec, int64(pc)-int64(prevPC+isa.InstSize))
		prevPC = pc
		rec = binary.AppendUvarint(rec, uint64(c.words[id]))
		if f&flagMem != 0 {
			rec = binary.AppendVarint(rec, int64(c.memAddr[i])-int64(prevMem))
			prevMem = c.memAddr[i]
		}
		if f&flagTarget != 0 {
			rec = binary.AppendVarint(rec, int64(c.target[i])-int64(pc))
		}
		if _, err := bw.Write(rec); err != nil {
			return cw.n, err
		}
	}
	err = bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// readUvarint reads a uvarint in its shortest encoding, the only one
// WriteTo produces: an overlong or overflowing encoding is ErrFormat, so
// every stream ReadFrom accepts is the one WriteTo writes for its trace.
func readUvarint(r io.ByteReader) (uint64, error) {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, ErrFormat
		}
		if b < 0x80 {
			if b == 0 && i > 0 || i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, ErrFormat
			}
			return x | uint64(b)<<(7*i), nil
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return 0, ErrFormat
}

// readVarint reads a zig-zag svarint as binary.PutVarint writes it, in its
// shortest encoding.
func readVarint(r io.ByteReader) (int64, error) {
	ux, err := readUvarint(r)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// ReadFrom parses a RIFT stream. It accepts exactly the streams WriteTo
// writes — shortest varints, the flag bits each word implies, nothing after
// the last event — and builds the trace's columns as events arrive, so the
// memory it takes is bounded by the stream it reads, not by the event count
// the header claims.
func ReadFrom(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil || string(head) != magic {
		return nil, ErrFormat
	}
	v, err := readUvarint(br)
	if err != nil || v != version {
		return nil, fmt.Errorf("%w: version %d", ErrFormat, v)
	}
	flags, err := readUvarint(br)
	if err != nil || flags > 1 {
		return nil, ErrFormat
	}
	nameLen, err := readUvarint(br)
	if err != nil || nameLen > 1<<20 {
		return nil, ErrFormat
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, ErrFormat
	}
	count, err := readUvarint(br)
	if err != nil {
		return nil, ErrFormat
	}
	b := NewBuilder()
	var kinds []byte // per word id, as wordFlags
	var prevPC, prevMem uint64
	for i := uint64(0); i < count; i++ {
		f, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at event %d", ErrFormat, i)
		}
		dpc, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		pc := uint64(int64(prevPC+isa.InstSize) + dpc)
		prevPC = pc
		word, err := readUvarint(br)
		if err != nil || word > math.MaxUint32 {
			return nil, ErrFormat
		}
		var mem, target uint64
		if f&flagMem != 0 {
			dm, err := readVarint(br)
			if err != nil {
				return nil, err
			}
			mem = uint64(int64(prevMem) + dm)
			prevMem = mem
		}
		if f&flagTarget != 0 {
			dt, err := readVarint(br)
			if err != nil {
				return nil, err
			}
			target = uint64(int64(pc) + dt)
		}
		id := b.Add(pc, uint32(word), mem, target, f&flagTaken != 0)
		if int(id) == len(kinds) {
			kinds = append(kinds, wordFlags(uint32(word)))
		}
		if f&^flagTaken != kinds[id] {
			return nil, fmt.Errorf("%w: event %d: flags %#x do not match instruction %#x", ErrFormat, i, f, word)
		}
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, fmt.Errorf("%w: data after the last event", ErrFormat)
	case err != io.EOF:
		return nil, err
	}
	return b.Trace(string(name), flags&1 != 0), nil
}

// WriteFile serialises t to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}
