package trace

import (
	"slices"
	"sync"

	"racesim/internal/isa"
)

// Decoded is a trace in decode-once, struct-of-arrays form under one
// decoder variant: the static decode of every distinct instruction word,
// computed exactly once and stored in a small id-indexed table, beside the
// trace's own per-event columns. Replaying a decoded trace is a linear
// array walk — no per-event decoder call, no per-event map lookup, and no
// per-event isa.Inst materialization — which is what makes sweeping
// hundreds of configurations over the same trace cheap (the decode is
// config-invariant; only the DepBug decoder defect changes it).
//
// The per-event columns (IDs, PC, MemAddr, Target, TakenBits) are the
// trace's, re-sliced, not copies: both variants of a trace alias the same
// memory, and only Insts — O(distinct words), a few KB — is a variant's
// own. So nothing may write to them. A Decoded is immutable after
// construction and safe to share across any number of concurrent replays.
// Obtain one via Trace.Decoded, which memoizes per (trace, DepBug)
// variant.
type Decoded struct {
	// Name and WarmData mirror the source trace (see Trace).
	Name     string
	WarmData bool
	// DepBug records which decoder variant produced Insts.
	DepBug bool

	// IDs holds one entry per dynamic instruction: an index into Insts.
	// Ids follow the words' first appearance in the trace.
	IDs []uint32
	// Insts is the table of unique static decodes. Dynamic fields
	// (PC, MemAddr, Target, Taken) are zero; replay reads them from the
	// columns below.
	Insts []isa.Inst

	// Dynamic columns, parallel to IDs (the trace's own; see above).
	PC      []uint64
	MemAddr []uint64
	Target  []uint64
	// TakenBits packs the per-event branch outcome as a bitset;
	// use Taken(i). It may run past Len; bits past Len are clear.
	TakenBits []uint64

	// Err is the decode error of the first undecodable event, if any.
	// The columns then cover only the events before it: a replay stops
	// at the failing event, as an event-by-event decode would. For a
	// deferred trace that could not materialize (see Deferred) it is that
	// error, and the columns are empty. Replay reports Err either way.
	Err error

	// derived memoizes one value a higher layer computes from the decode
	// (sim's compiled behavior table and tape memo); see Derived.
	derivedOnce sync.Once
	derived     any
}

// Derived returns the value build(d) returned the first time Derived was
// called on d, computing it at most once even under concurrent callers.
// The slot lets a layer above trace attach what it compiles from the
// decode, or memoizes about it, to the decode itself, so the two are shared
// by the same callers and garbage-collected together (a side table keyed by
// d would pin every decode it ever saw). The value must be safe for the
// decode's concurrent users. There is one slot: all callers must pass the
// same build.
func (d *Decoded) Derived(build func(*Decoded) any) any {
	d.derivedOnce.Do(func() { d.derived = build(d) })
	return d.derived
}

// Len returns the number of decoded dynamic instructions.
func (d *Decoded) Len() int { return len(d.IDs) }

// Taken reports the branch outcome of event i.
func (d *Decoded) Taken(i int) bool {
	return d.TakenBits[i>>6]>>(uint(i)&63)&1 != 0
}

// Inst returns the shared static decode of event i. Callers must not
// mutate the result.
func (d *Decoded) Inst(i int) *isa.Inst { return &d.Insts[d.IDs[i]] }

// decodeTrace builds the columnar form of t under the given decoder
// variant, materializing t if it is deferred. It decodes each distinct word
// once, in id order, and re-slices t's columns: ids follow the words' first
// appearance, so the first event of the first word that does not decode is
// the first undecodable event, where a replay stops.
func decodeTrace(t *Trace, depBug bool) *Decoded {
	c, err := t.content()
	if err != nil {
		return &Decoded{Name: t.Name, WarmData: t.WarmData, DepBug: depBug, Err: err}
	}
	d := &Decoded{Name: t.Name, WarmData: t.WarmData, DepBug: depBug, TakenBits: c.taken}
	if len(c.words) > 0 {
		d.Insts = make([]isa.Inst, 0, len(c.words))
	}
	n := c.len()
	dec := isa.Decoder{DepBug: depBug}
	for id, w := range c.words {
		// A word is decoded once for every PC it appears at, so the
		// decode (and a decode error's text) names PC 0.
		in, err := dec.Decode(0, w)
		if err != nil {
			d.Err = err
			n = slices.Index(c.ids, uint32(id))
			d.TakenBits = prefixBits(c.taken, n)
			break
		}
		d.Insts = append(d.Insts, in)
	}
	// Full slice expressions: an append to a column copies, never writes
	// into the trace.
	d.IDs, d.PC, d.MemAddr, d.Target = c.ids[:n:n], c.pc[:n:n], c.memAddr[:n:n], c.target[:n:n]
	return d
}

// prefixBits returns a copy of the bitset bits with every bit from n on
// cleared.
func prefixBits(bits []uint64, n int) []uint64 {
	out := make([]uint64, len(bits))
	copy(out, bits[:n/64])
	if r := n % 64; r != 0 {
		out[n/64] = bits[n/64] & (1<<r - 1)
	}
	return out
}

// Decoded returns the decode-once columnar form of the trace for the given
// decoder variant, computed on first use and memoized (like Digest). All
// callers — concurrent tuner workers, validation stages, perturbation
// sweeps — share one immutable instance per variant, and the two variants
// share the trace's columns: the second costs its table of distinct
// decodes, not a copy of the events.
func (t *Trace) Decoded(depBug bool) *Decoded {
	i := 0
	if depBug {
		i = 1
	}
	t.decodedOnce[i].Do(func() {
		t.decoded[i] = decodeTrace(t, depBug)
	})
	return t.decoded[i]
}
