package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"racesim/internal/emu"
	"racesim/internal/isa"
)

// Event is one dynamic instruction: the fetched word plus its dynamic
// outcome (effective address, branch direction and target). A trace does
// not store Events — it stores columns (see Builder) — Event is the value
// a Cursor yields and what New takes.
type Event struct {
	PC      uint64
	Word    uint32
	MemAddr uint64
	Target  uint64
	Taken   bool
}

// Trace is an in-memory recording of a single-threaded execution, stored
// once as columns (PC, MemAddr and Target, an id per event into the table
// of distinct instruction words, the taken bits) that both decoded
// variants share. It is in one of two states. An ordinary trace holds its
// columns. A deferred trace (see Deferred) holds only its Identity: Name,
// Len, WarmData and Digest answer from it, and the columns stay empty until
// something reads events — Decoded, NewCursor, WriteTo — which runs the
// generator, once. A trace's events never change after it is built.
type Trace struct {
	Name string
	// WarmData records that the traced program initialized its data
	// before the captured region (as SPEC workloads do). Hardware page
	// optimizations for never-written (zero) pages do not apply to such
	// traces; see cache.HierarchyConfig.ZeroFillOpt.
	WarmData bool

	cols columns // empty while the trace is deferred; read through content

	digestOnce sync.Once
	digest     string
	sum        [sha256.Size]byte // digest's bytes

	// Memoized decode-once forms, one per decoder variant (correct,
	// DepBug); see Decoded.
	decodedOnce [2]sync.Once
	decoded     [2]*Decoded

	deferred *deferred // nil for an ordinary trace
}

// Identity is what a trace's content comes to without its events: enough
// to key the simulation cache (Digest), to report the trace (Len) and to
// tell, when the events are generated again, that they are the same ones.
// Like Digest it excludes the cosmetic Name.
type Identity struct {
	Len      int
	WarmData bool
	Digest   string // as Trace.Digest returns it
}

// Identity returns the trace's identity, digesting it if nothing has yet.
func (t *Trace) Identity() Identity {
	return Identity{Len: t.Len(), WarmData: t.WarmData, Digest: t.Digest()}
}

// deferred is the state of a trace whose events have not been asked for.
type deferred struct {
	id       Identity
	sum      [sha256.Size]byte // id.Digest's bytes, when sumOK
	sumOK    bool
	generate func() (*Trace, error)
	once     sync.Once
	err      error
	resident atomic.Bool // cols is set
}

// Deferred returns a trace named name in the deferred state: it answers
// Len, WarmData and Digest from id — remembered from an earlier generation
// of the same trace — and calls generate only when something first reads
// its events, at most once however many readers race for them. What
// generate returns is digested again and must match id in count, flag and
// digest; if it does not (or generate fails) every reader gets that error
// — Decoded carries it in Decoded.Err, so the simulation that asked fails
// — and never the events of some other trace.
func Deferred(name string, id Identity, generate func() (*Trace, error)) *Trace {
	d := &deferred{id: id, generate: generate}
	if len(id.Digest) == hex.EncodedLen(sha256.Size) && strings.ToLower(id.Digest) == id.Digest {
		_, err := hex.Decode(d.sum[:], []byte(id.Digest))
		d.sumOK = err == nil
	}
	return &Trace{Name: name, WarmData: id.WarmData, deferred: d}
}

// content returns the trace's columns, materializing a deferred trace.
func (t *Trace) content() (*columns, error) {
	if d := t.deferred; d != nil {
		d.once.Do(func() { d.err = t.materialize() })
		if d.err != nil {
			return nil, d.err
		}
	}
	return &t.cols, nil
}

func (t *Trace) materialize() error {
	d := t.deferred
	g, err := d.generate()
	d.generate = nil // whatever the closure holds is no longer needed
	if err != nil {
		return fmt.Errorf("trace %s: generating the events of a deferred trace: %w", t.Name, err)
	}
	if got := g.Identity(); got != d.id {
		return fmt.Errorf("trace %s: generated %d events (warm data %v) with digest %s, but was remembered as %d events (warm data %v) with digest %s: "+
			"the generator is not a function of its parameters, or the remembered identity is not this trace's",
			t.Name, got.Len, got.WarmData, got.Digest, d.id.Len, d.id.WarmData, d.id.Digest)
	}
	t.cols = g.cols
	d.resident.Store(true)
	return nil
}

// Len returns the number of dynamic instructions in the trace.
func (t *Trace) Len() int {
	if t.deferred != nil {
		return t.deferred.id.Len
	}
	return t.cols.len()
}

// Resident returns how many events the trace holds in memory: Len, or 0
// for a deferred trace nothing has read events from yet.
func (t *Trace) Resident() int {
	if d := t.deferred; d != nil && !d.resident.Load() {
		return 0
	}
	return t.cols.len()
}

// digestRecord is the size of one event's record in the digest stream.
const digestRecord = 29

// Digest returns a stable hex identity of the trace content: every dynamic
// event plus the WarmData flag (which changes timing), excluding the
// cosmetic Name so identically generated traces share simulation-cache
// entries. The digest is computed once and memoized.
func (t *Trace) Digest() string {
	if t.deferred != nil {
		return t.deferred.id.Digest
	}
	t.digestOnce.Do(t.digestContent)
	return t.digest
}

// DigestSum returns the SHA-256 sum Digest spells in lowercase hex, held
// beside it, so a caller keying by the raw bytes decodes nothing. ok is
// false only for a deferred trace whose remembered digest is not the
// lowercase hex of a sum — no trace digests to one.
func (t *Trace) DigestSum() (sum [sha256.Size]byte, ok bool) {
	if d := t.deferred; d != nil {
		return d.sum, d.sumOK
	}
	t.digestOnce.Do(t.digestContent)
	return t.sum, true
}

// digestContent computes an ordinary trace's digest and its hex spelling.
func (t *Trace) digestContent() {
	h := sha256.New()
	var buf [64 * digestRecord]byte
	if t.WarmData {
		buf[0] = 1
	}
	h.Write(buf[:1])
	c := &t.cols
	for lo := 0; lo < c.len(); lo += 64 {
		m := min(64, c.len()-lo)
		for j := range m {
			i, rec := lo+j, buf[j*digestRecord:(j+1)*digestRecord]
			binary.LittleEndian.PutUint64(rec[0:], c.pc[i])
			binary.LittleEndian.PutUint32(rec[8:], c.words[c.ids[i]])
			binary.LittleEndian.PutUint64(rec[12:], c.memAddr[i])
			binary.LittleEndian.PutUint64(rec[20:], c.target[i])
			rec[28] = 0
			if c.isTaken(i) {
				rec[28] = 1
			}
		}
		h.Write(buf[:m*digestRecord])
	}
	h.Sum(t.sum[:0])
	t.digest = hex.EncodeToString(t.sum[:])
}

// Cursor reads an in-memory Trace one event at a time, in program order.
type Cursor struct {
	cols *columns
	pos  int
}

// NewCursor returns a cursor reading t from the beginning. The error is
// that of materializing a deferred trace (see Deferred); an ordinary trace
// has none.
func NewCursor(t *Trace) (*Cursor, error) {
	c, err := t.content()
	if err != nil {
		return nil, err
	}
	return &Cursor{cols: c}, nil
}

// Next returns the next event. ok is false at end of trace.
func (c *Cursor) Next() (Event, bool) {
	if c.pos >= c.cols.len() {
		return Event{}, false
	}
	ev := c.cols.event(c.pos)
	c.pos++
	return ev, true
}

// Record executes prog on the functional emulator for at most maxInst
// instructions and returns the recorded trace. A program that exhausts the
// budget (rather than halting) still yields a valid trace.
func Record(name string, prog *isa.Program, maxInst uint64) (*Trace, error) {
	m := emu.New(prog)
	b := NewBuilder()
	err := m.Run(maxInst, func(in isa.Inst) { b.Add(in.PC, in.Word, in.MemAddr, in.Target, in.Taken) })
	if err != nil && err != emu.ErrMaxInstructions {
		return nil, err
	}
	return b.Trace(name, false), nil
}

// ClassMix counts dynamic instructions per timing class, using a correct
// decoder. Invalid words are counted under ClassNop. A deferred trace that
// cannot materialize counts as empty; Decoded and NewCursor report why.
func (t *Trace) ClassMix() [isa.NumClasses]int {
	var mix [isa.NumClasses]int
	c, err := t.content()
	if err != nil {
		return mix
	}
	perWord := make([]int, len(c.words))
	for _, id := range c.ids {
		perWord[id]++
	}
	var d isa.Decoder
	for id, w := range c.words {
		cls := isa.ClassNop
		if in, err := d.Decode(0, w); err == nil {
			cls = in.Cls
		}
		mix[cls] += perWord[id]
	}
	return mix
}
