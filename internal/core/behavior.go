package core

import "racesim/internal/isa"

// stepKind is the step kernel's dispatch, resolved once per unique static
// decode instead of once per dynamic instruction.
type stepKind uint8

const (
	stepOther stepKind = iota
	stepLoad
	stepStore
	stepBranch
)

// Behavior is the per-static-instruction recipe the replay kernels
// consume: the decoder's output reduced to exactly the fields the timing
// models read, with the class tests (load/store/branch dispatch) folded
// into Kind ahead of the hot loop. A Behavior is config-invariant — it
// depends only on the instruction word and the decoder variant — so one
// table compiled from a trace's unique static decodes is shared by every
// lane of a batched replay.
//
// The operand lists have no counts: unused sources name regZero, which no
// instruction writes, and unused destinations name regSink, which none
// reads, so a kernel reads all three sources and writes both destinations
// without a loop.
type Behavior struct {
	Cls  isa.Class
	Op   isa.Op
	kind stepKind
	src  [3]isa.Reg
	dst  [2]isa.Reg
}

// The lane's registers beyond the architectural ones (see Behavior).
const (
	regZero  = isa.NumRegs     // never written: ready at cycle 0
	regSink  = isa.NumRegs + 1 // never read
	laneRegs = isa.NumRegs + 2
)

// behaviorOf compiles one static decode.
func behaviorOf(in *isa.Inst) Behavior {
	b := Behavior{Cls: in.Cls, Op: in.Op,
		src: [3]isa.Reg{regZero, regZero, regZero}, dst: [2]isa.Reg{regSink, regSink}}
	copy(b.src[:], in.Src[:in.NSrc])
	copy(b.dst[:], in.Dst[:in.NDst])
	switch {
	case in.Cls == isa.ClassLoad:
		b.kind = stepLoad
	case in.Cls == isa.ClassStore:
		b.kind = stepStore
	case in.Cls.IsBranch():
		b.kind = stepBranch
	}
	return b
}

// CompileBehaviors compiles the behavior table for a decoded trace's
// unique-static-decode table (trace.Decoded.Insts): entry i is the recipe
// for static id i. The table is immutable and safe to share across
// concurrent replays; sim memoizes it alongside the decode.
func CompileBehaviors(insts []isa.Inst) []Behavior {
	out := make([]Behavior, len(insts))
	for i := range insts {
		out[i] = behaviorOf(&insts[i])
	}
	return out
}

// latencyTable expands LatencyConfig into a by-class array so the step
// kernel indexes it instead of re-running the class switch (which copied
// the config by value) per dynamic instruction.
func latencyTable(lat LatencyConfig) [isa.NumClasses]uint64 {
	var t [isa.NumClasses]uint64
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		t[c] = uint64(lat.Latency(c))
	}
	return t
}

// ClassHistogram counts the dynamic instructions per class of a decoded
// walk. The counts depend only on the trace, never on the lane or the
// configuration, so replay paths add them to Results in bulk — every lane
// of a batch gets the same histogram — instead of counting inside the step
// kernel, and a caller that replays one decode many times counts once
// (Replay's classes argument).
func ClassHistogram(ids []uint32, behav []Behavior) [isa.NumClasses]uint64 {
	var cc [isa.NumClasses]uint64
	for _, id := range ids {
		cc[behav[id].Cls]++
	}
	return cc
}

// addCounts credits n dynamic instructions with class histogram cc to res.
func addCounts(res *Result, n uint64, cc *[isa.NumClasses]uint64) {
	res.Instructions += n
	for c := range cc {
		res.ClassCounts[c] += cc[c]
	}
}
