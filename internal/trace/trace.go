package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"racesim/internal/emu"
	"racesim/internal/isa"
)

// Event is one dynamic instruction: the fetched word plus its dynamic
// outcome (effective address, branch direction and target).
type Event struct {
	PC      uint64
	Word    uint32
	MemAddr uint64
	Target  uint64
	Taken   bool
}

// FromInst converts a retired instruction from the emulator into an Event.
func FromInst(in isa.Inst) Event {
	return Event{PC: in.PC, Word: in.Word, MemAddr: in.MemAddr, Target: in.Target, Taken: in.Taken}
}

// Trace is an in-memory recording of a single-threaded execution. It is in
// one of two states. An ordinary trace holds its Events. A deferred trace
// (see Deferred) holds only its Identity: Name, Len, WarmData and Digest
// answer from it, and Events stays nil until something reads events —
// Decoded, NewCursor, WriteTo — which runs the generator, once.
type Trace struct {
	Name string
	// Events is nil while the trace is deferred; read events through
	// Decoded, NewCursor or WriteTo, which materialize it first.
	Events []Event
	// WarmData records that the traced program initialized its data
	// before the captured region (as SPEC workloads do). Hardware page
	// optimizations for never-written (zero) pages do not apply to such
	// traces; see cache.HierarchyConfig.ZeroFillOpt.
	WarmData bool

	digestOnce sync.Once
	digest     string

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
	generate func() (*Trace, error)
	once     sync.Once
	err      error
	resident atomic.Bool // Events is set
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
	return &Trace{Name: name, WarmData: id.WarmData, deferred: &deferred{id: id, generate: generate}}
}

// events returns the trace's events, materializing a deferred trace.
func (t *Trace) events() ([]Event, error) {
	if d := t.deferred; d != nil {
		d.once.Do(func() { d.err = t.materialize() })
		if d.err != nil {
			return nil, d.err
		}
	}
	return t.Events, nil
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
	t.Events = g.Events
	d.resident.Store(true)
	return nil
}

// Len returns the number of dynamic instructions in the trace.
func (t *Trace) Len() int {
	if t.deferred != nil {
		return t.deferred.id.Len
	}
	return len(t.Events)
}

// Resident returns how many events the trace holds in memory: Len, or 0
// for a deferred trace nothing has read events from yet.
func (t *Trace) Resident() int {
	if d := t.deferred; d != nil && !d.resident.Load() {
		return 0
	}
	return len(t.Events)
}

// Digest returns a stable hex identity of the trace content: every dynamic
// event plus the WarmData flag (which changes timing), excluding the
// cosmetic Name so identically generated traces share simulation-cache
// entries. The digest is computed once and memoized; callers must not
// mutate Events after the first call.
func (t *Trace) Digest() string {
	if t.deferred != nil {
		return t.deferred.id.Digest
	}
	t.digestOnce.Do(func() {
		h := sha256.New()
		var buf [29]byte
		if t.WarmData {
			buf[0] = 1
		}
		h.Write(buf[:1])
		for _, ev := range t.Events {
			binary.LittleEndian.PutUint64(buf[0:], ev.PC)
			binary.LittleEndian.PutUint32(buf[8:], ev.Word)
			binary.LittleEndian.PutUint64(buf[12:], ev.MemAddr)
			binary.LittleEndian.PutUint64(buf[20:], ev.Target)
			buf[28] = 0
			if ev.Taken {
				buf[28] = 1
			}
			h.Write(buf[:])
		}
		t.digest = hex.EncodeToString(h.Sum(nil))
	})
	return t.digest
}

// Source yields events in program order. Implementations must allow Reset
// so one recording can drive many timing-model configurations.
type Source interface {
	// Next returns the next event. ok is false at end of trace.
	Next() (ev Event, ok bool)
	// Reset rewinds the source to the beginning.
	Reset()
	// Len returns the total number of events.
	Len() int
}

// Cursor is a Source over an in-memory Trace.
type Cursor struct {
	events []Event
	pos    int
}

// NewCursor returns a Source reading t from the beginning. The error is
// that of materializing a deferred trace (see Deferred); an ordinary trace
// has none.
func NewCursor(t *Trace) (*Cursor, error) {
	events, err := t.events()
	if err != nil {
		return nil, err
	}
	return &Cursor{events: events}, nil
}

// Next implements Source.
func (c *Cursor) Next() (Event, bool) {
	if c.pos >= len(c.events) {
		return Event{}, false
	}
	ev := c.events[c.pos]
	c.pos++
	return ev, true
}

// Reset implements Source.
func (c *Cursor) Reset() { c.pos = 0 }

// Len implements Source.
func (c *Cursor) Len() int { return len(c.events) }

// chunkEvents is the unit a recording in progress grows by.
const chunkEvents = 1 << 13

// recorder captures a recording whose length is only known once the
// program has run. Growing the trace's own slice by doubling used to
// allocate and copy several times the final size; a recorder grows by
// whole chunks instead, which copies nothing, keeps its chunks for the
// next recording, and hands out one exact-size copy at the end. In steady
// state a recording therefore allocates its trace and nothing else.
type recorder struct {
	chunks [][]Event // each of capacity chunkEvents
	used   int       // chunks[:used] hold the recording; all but the last are full
}

// recorders recycles recorders (with their chunks) across recordings.
var recorders = sync.Pool{New: func() any { return new(recorder) }}

func (r *recorder) add(ev Event) {
	if r.used == 0 || len(r.chunks[r.used-1]) == chunkEvents {
		if r.used == len(r.chunks) {
			r.chunks = append(r.chunks, make([]Event, 0, chunkEvents))
		}
		r.chunks[r.used] = r.chunks[r.used][:0]
		r.used++
	}
	c := &r.chunks[r.used-1]
	*c = append(*c, ev)
}

// take returns the recording as one exact-size slice and empties the
// recorder.
func (r *recorder) take() []Event {
	n := 0
	for _, c := range r.chunks[:r.used] {
		n += len(c)
	}
	out := make([]Event, 0, n)
	for _, c := range r.chunks[:r.used] {
		out = append(out, c...)
	}
	r.used = 0
	return out
}

// Record executes prog on the functional emulator for at most maxInst
// instructions and returns the recorded trace. A program that exhausts the
// budget (rather than halting) still yields a valid trace.
func Record(name string, prog *isa.Program, maxInst uint64) (*Trace, error) {
	m := emu.New(prog)
	r := recorders.Get().(*recorder)
	defer recorders.Put(r)
	err := m.Run(maxInst, func(in isa.Inst) { r.add(FromInst(in)) })
	events := r.take()
	if err != nil && err != emu.ErrMaxInstructions {
		return nil, err
	}
	return &Trace{Name: name, Events: events}, nil
}

// ClassMix counts dynamic instructions per timing class, using a correct
// decoder. Invalid words are counted under ClassNop. A deferred trace that
// cannot materialize counts as empty; Decoded and NewCursor report why.
func (t *Trace) ClassMix() [isa.NumClasses]int {
	var mix [isa.NumClasses]int
	var d isa.Decoder
	events, _ := t.events()
	for _, ev := range events {
		in, err := d.Decode(ev.PC, ev.Word)
		if err != nil {
			mix[isa.ClassNop]++
			continue
		}
		mix[in.Cls]++
	}
	return mix
}
