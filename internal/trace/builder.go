package trace

import (
	"slices"
	"sync"
)

// columns is a trace's content, stored once: one entry per event in each
// per-event column, the instruction word interned. A trace's columns are
// written by a Builder and never modified afterwards, so the decoded
// variants (Decoded) re-slice them instead of copying.
type columns struct {
	pc, memAddr, target []uint64
	ids                 []uint32 // per event: index into words
	taken               []uint64 // bitset: bit i is event i's branch outcome
	// words holds each distinct instruction word once, in order of first
	// appearance: the first event with id k comes after the first event of
	// every id below k.
	words []uint32
}

func (c *columns) len() int { return len(c.ids) }

func (c *columns) isTaken(i int) bool { return c.taken[i>>6]>>(uint(i)&63)&1 != 0 }

// event returns event i as a value.
func (c *columns) event(i int) Event {
	return Event{PC: c.pc[i], Word: c.words[c.ids[i]], MemAddr: c.memAddr[i], Target: c.target[i], Taken: c.isTaken(i)}
}

// chunkEvents is the unit a trace under construction grows by.
const chunkEvents = 1 << 13

// chunk holds chunkEvents events of a trace under construction.
type chunk struct {
	pc, memAddr, target [chunkEvents]uint64
	ids                 [chunkEvents]uint32
	taken               [chunkEvents / 64]uint64
}

// Builder appends events to a trace whose length is known only once the
// last one is in, column by column. It grows by whole chunks, which copies
// nothing, keeps its chunks for the next trace, and hands out exact-size
// columns at the end (Trace), so in steady state building a trace
// allocates the trace and nothing else. Record, workload.Generate and
// ReadFrom all build through one.
type Builder struct {
	chunks []*chunk // chunks holding events [0, n); later ones are spare
	n      int
	words  []uint32
	index  map[uint32]uint32 // word -> id
	// recent is a direct-mapped cache in front of index: a trace repeats a
	// few hundred words, and a hit costs a multiply and a compare.
	recent [1 << recentBits]struct{ word, id1 uint32 } // id1 = id+1; 0 = empty
}

const recentBits = 10

// builders recycles builders (with their chunks) across traces.
var builders = sync.Pool{New: func() any { return &Builder{index: map[uint32]uint32{}} }}

// NewBuilder returns an empty builder. Hand it back with Trace; one
// abandoned on an error path is garbage like any other value.
func NewBuilder() *Builder { return builders.Get().(*Builder) }

// Len returns the number of events added so far.
func (b *Builder) Len() int { return b.n }

// Add appends one event and returns its word's id: the index of word among
// the distinct words added so far, in order of first appearance.
func (b *Builder) Add(pc uint64, word uint32, memAddr, target uint64, taken bool) uint32 {
	var id uint32
	if r := &b.recent[word*0x9E3779B1>>(32-recentBits)]; r.id1 != 0 && r.word == word {
		id = r.id1 - 1
	} else {
		var ok bool
		if id, ok = b.index[word]; !ok {
			id = uint32(len(b.words))
			b.words = append(b.words, word)
			b.index[word] = id
		}
		r.word, r.id1 = word, id+1
	}
	k, i := b.n/chunkEvents, b.n%chunkEvents
	if k == len(b.chunks) {
		b.chunks = append(b.chunks, new(chunk))
	}
	c := b.chunks[k]
	c.pc[i], c.memAddr[i], c.target[i], c.ids[i] = pc, memAddr, target, id
	// Set or clear: a recycled chunk holds an earlier trace's bits.
	bit := uint64(1) << (uint(i) & 63)
	if taken {
		c.taken[i>>6] |= bit
	} else {
		c.taken[i>>6] &^= bit
	}
	b.n++
	return id
}

// Trace returns the events added so far as a trace with exact-size
// columns and puts b back for reuse; b must not be used afterwards.
func (b *Builder) Trace(name string, warm bool) *Trace {
	n := b.n
	c := columns{
		pc:      make([]uint64, n),
		memAddr: make([]uint64, n),
		target:  make([]uint64, n),
		ids:     make([]uint32, n),
		taken:   make([]uint64, (n+63)/64),
		words:   slices.Clone(b.words),
	}
	for lo := 0; lo < n; lo += chunkEvents {
		ch, m := b.chunks[lo/chunkEvents], min(chunkEvents, n-lo)
		copy(c.pc[lo:], ch.pc[:m])
		copy(c.memAddr[lo:], ch.memAddr[:m])
		copy(c.target[lo:], ch.target[:m])
		copy(c.ids[lo:], ch.ids[:m])
		copy(c.taken[lo/64:], ch.taken[:(m+63)/64])
	}
	if r := n % 64; r != 0 {
		c.taken[len(c.taken)-1] &= 1<<r - 1 // bits past the end are an earlier trace's
	}
	b.n, b.words = 0, b.words[:0]
	clear(b.index)
	clear(b.recent[:])
	builders.Put(b)
	return &Trace{Name: name, WarmData: warm, cols: c}
}

// New returns the trace of the given events. It is for tests and small
// hand-made traces; producers add to a Builder.
func New(name string, warm bool, events ...Event) *Trace {
	b := NewBuilder()
	for _, ev := range events {
		b.Add(ev.PC, ev.Word, ev.MemAddr, ev.Target, ev.Taken)
	}
	return b.Trace(name, warm)
}
