package trace

import (
	"sync"

	"racesim/internal/isa"
)

// Decoded is a trace in decode-once, struct-of-arrays form: the static
// decode of every distinct instruction word is computed exactly once and
// stored in a small id-indexed table, while the dynamic per-event fields
// live in parallel columns. Replaying a decoded trace is a linear array
// walk — no per-event decoder call, no per-event map lookup, and no
// per-event isa.Inst materialization — which is what makes sweeping
// hundreds of configurations over the same trace cheap (the decode is
// config-invariant; only the DepBug decoder defect changes it).
//
// A Decoded is immutable after construction and safe to share across any
// number of concurrent replays. Obtain one via Trace.Decoded, which
// memoizes per (trace, DepBug) variant.
type Decoded struct {
	// Name and WarmData mirror the source trace (see Trace).
	Name     string
	WarmData bool
	// DepBug records which decoder variant produced Insts.
	DepBug bool

	// IDs holds one entry per dynamic instruction: an index into Insts.
	IDs []uint32
	// Insts is the table of unique static decodes. Dynamic fields
	// (PC, MemAddr, Target, Taken) are zero; replay reads them from the
	// columns below.
	Insts []isa.Inst

	// Dynamic columns, parallel to IDs.
	PC      []uint64
	MemAddr []uint64
	Target  []uint64
	// TakenBits packs the per-event branch outcome as a bitset;
	// use Taken(i).
	TakenBits []uint64

	// Err is the decode error of the first undecodable event, if any.
	// The columns then cover only the events before it, matching the
	// legacy path, which replays up to the failing event and stops. For a
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
// variant, materializing t if it is deferred.
func decodeTrace(t *Trace, depBug bool) *Decoded {
	events, err := t.events()
	if err != nil {
		return &Decoded{Name: t.Name, WarmData: t.WarmData, DepBug: depBug, Err: err}
	}
	dec := isa.Decoder{DepBug: depBug}
	n := len(events)
	d := &Decoded{
		Name:      t.Name,
		WarmData:  t.WarmData,
		DepBug:    depBug,
		IDs:       make([]uint32, 0, n),
		PC:        make([]uint64, 0, n),
		MemAddr:   make([]uint64, 0, n),
		Target:    make([]uint64, 0, n),
		TakenBits: make([]uint64, (n+63)/64),
	}
	ids := make(map[uint32]uint32, 256)
	for i := range events {
		ev := &events[i]
		id, ok := ids[ev.Word]
		if !ok {
			// PC 0 matches the legacy per-word decode cache, so error
			// text (and hence observable behaviour) is identical.
			in, err := dec.Decode(0, ev.Word)
			if err != nil {
				d.Err = err
				break
			}
			id = uint32(len(d.Insts))
			d.Insts = append(d.Insts, in)
			ids[ev.Word] = id
		}
		d.IDs = append(d.IDs, id)
		d.PC = append(d.PC, ev.PC)
		d.MemAddr = append(d.MemAddr, ev.MemAddr)
		d.Target = append(d.Target, ev.Target)
		if ev.Taken {
			d.TakenBits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return d
}

// Decoded returns the decode-once columnar form of the trace for the given
// decoder variant, computed on first use and memoized (like Digest). All
// callers — concurrent tuner workers, validation stages, perturbation
// sweeps — share one immutable instance per variant; callers must not
// mutate Events after the first call.
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
