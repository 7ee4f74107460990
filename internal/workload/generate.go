package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"racesim/internal/isa"
	"racesim/internal/trace"
)

// Options parameterizes trace synthesis.
type Options struct {
	// Events is the dynamic instruction target (default 150_000).
	Events int
	// Seed perturbs the generator (combined with the profile name).
	Seed int64
	// WSDivisor scales each profile's paper-scale working set down to
	// something a short trace can exercise, preserving the relative
	// footprint differences between benchmarks (default 32, minimum
	// effective working set 16 KB).
	WSDivisor int
}

const (
	codeBase = 0x10000
	dataBase = 0x2000000
	stubBase = 0x800000 // indirect-branch trampolines and functions
)

// synthInst is one static instruction plus its address-generation role.
type synthInst struct {
	word uint32
	cls  isa.Class
	// For loads/stores: which address stream drives it.
	stream int // index into streams; -1 random-chase; -2 hot stack
}

type block struct {
	pc    uint64
	insts []synthInst
	// terminator behaviour
	kind     termKind
	condWord uint32 // BCC word for conditional terminators
	target   uint64 // taken target
	stubs    []uint64
	callee   int // function index for calls
}

type termKind int

const (
	termCond termKind = iota // conditional skip of the next block
	termLoop                 // backward branch to block 0
	termCall                 // BL to a function, then fall through
	termInd                  // indirect branch through trampolines
)

type function struct {
	pc    uint64
	insts []synthInst
}

// generator holds the static image and dynamic state.
type generator struct {
	p      Profile
	rng    *rand.Rand
	blocks []block
	funcs  []function

	streamPtr []uint64 // per-stream next address
	chasePtr  uint64
	wsMask    uint64
	b         *trace.Builder
	n         int // events to emit; the walk's last block may run past it
	flagsSet  bool
	lastInd   map[int]int // per-indirect-block last trampoline index
}

// Generate synthesizes the trace for a profile.
func Generate(p Profile, o Options) (*trace.Trace, error) {
	if p.CodeBlocks < 2 {
		return nil, fmt.Errorf("workload %s: CodeBlocks = %d", p.Name, p.CodeBlocks)
	}
	n := o.Events
	if n <= 0 {
		n = 150_000
	}
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	g := &generator{
		p:       p,
		rng:     rand.New(rand.NewSource(o.Seed ^ int64(h.Sum64()))),
		lastInd: make(map[int]int),
	}
	div := o.WSDivisor
	if div <= 0 {
		div = 32
	}
	ws := uint64(p.WorkingSetKB) * 1024 / uint64(div)
	if ws < 16*1024 {
		ws = 16 * 1024
	}
	// Round the working set mask down to a power of two.
	g.wsMask = 1
	for g.wsMask*2 <= ws {
		g.wsMask *= 2
	}
	g.wsMask--

	g.buildStatic()
	g.walk(n)
	// SPEC-class programs initialize their data structures before the
	// measured region, so zero-page hardware optimizations do not apply.
	return g.b.Trace(p.Name, true), nil
}

func (g *generator) reg(i int) isa.Reg  { return isa.X(1 + i%15) }
func (g *generator) vreg(i int) isa.Reg { return isa.V(1 + i%15) }

// pickCompute draws a compute instruction word per the profile mix.
func (g *generator) pickCompute(seq int, prevDst isa.Reg) (uint32, isa.Class, isa.Reg) {
	r := g.rng.Float64()
	dst := g.reg(seq * 3)
	src1 := g.reg(g.rng.Intn(15))
	if g.rng.Float64() < g.p.DepProb && prevDst != isa.RegNone && !prevDst.IsVec() {
		src1 = prevDst
	}
	src2 := g.reg(g.rng.Intn(15))
	switch {
	case r < g.p.FPFrac:
		vd, v1, v2 := g.vreg(seq*3), g.vreg(g.rng.Intn(15)), g.vreg(g.rng.Intn(15))
		if g.rng.Float64() < g.p.DepProb && prevDst.IsVec() {
			v1 = prevDst
		}
		ops := []isa.Op{isa.OpFADD, isa.OpFMUL, isa.OpFSUB, isa.OpFADD}
		op := ops[g.rng.Intn(len(ops))]
		if g.rng.Float64() < 0.05 {
			op = isa.OpFDIV
		}
		return isa.EncR(op, vd-isa.V0, v1-isa.V0, v2-isa.V0), isa.ClassOf(op), vd
	case r < g.p.FPFrac+g.p.SIMDFrac:
		vd, v1, v2 := g.vreg(seq*3), g.vreg(g.rng.Intn(15)), g.vreg(g.rng.Intn(15))
		op := isa.OpVADD
		if g.rng.Intn(2) == 0 {
			op = isa.OpVMUL
		}
		return isa.EncR(op, vd-isa.V0, v1-isa.V0, v2-isa.V0), isa.ClassSIMD, vd
	case r < g.p.FPFrac+g.p.SIMDFrac+g.p.MulFrac:
		return isa.EncR(isa.OpMUL, dst, src1, src2), isa.ClassIntMul, dst
	case r < g.p.FPFrac+g.p.SIMDFrac+g.p.MulFrac+g.p.DivFrac:
		return isa.EncR(isa.OpSDIV, dst, src1, src2), isa.ClassIntDiv, dst
	default:
		ops := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpEOR, isa.OpORR}
		op := ops[g.rng.Intn(len(ops))]
		return isa.EncR(op, dst, src1, src2), isa.ClassIntAlu, dst
	}
}

// buildStatic lays out blocks, functions and trampolines.
func (g *generator) buildStatic() {
	nStreams := 8
	g.streamPtr = make([]uint64, nStreams)
	for i := range g.streamPtr {
		g.streamPtr[i] = dataBase + uint64(i)*(g.wsMask+1)/uint64(nStreams)
	}
	g.chasePtr = dataBase

	// Functions.
	for f := 0; f < 4; f++ {
		fn := function{pc: stubBase + uint64(f)*0x100}
		prev := isa.RegNone
		for j := 0; j < 4; j++ {
			w, cls, dst := g.pickCompute(j, prev)
			fn.insts = append(fn.insts, synthInst{word: w, cls: cls})
			prev = dst
		}
		fn.insts = append(fn.insts, synthInst{word: isa.EncRET(), cls: isa.ClassRet})
		g.funcs = append(g.funcs, fn)
	}

	// Blocks.
	pc := uint64(codeBase)
	for i := 0; i < g.p.CodeBlocks; i++ {
		b := block{pc: pc}
		length := 6 + g.rng.Intn(9)
		prev := isa.RegNone
		for j := 0; j < length; j++ {
			r := g.rng.Float64()
			switch {
			case r < g.p.LoadFrac:
				dst := g.reg(j * 5)
				base := g.reg(g.rng.Intn(15))
				si := synthInst{word: isa.EncMem(isa.OpLDRX, dst, base, 0), cls: isa.ClassLoad}
				ar := g.rng.Float64()
				switch {
				case ar < g.p.StreamFrac:
					si.stream = g.rng.Intn(len(g.streamPtr))
				case ar < g.p.StreamFrac+g.p.ChaseFrac:
					si.stream = -1
				default:
					si.stream = -2
				}
				b.insts = append(b.insts, si)
				prev = dst
			case r < g.p.LoadFrac+g.p.StoreFrac:
				data := g.reg(g.rng.Intn(15))
				base := g.reg(g.rng.Intn(15))
				si := synthInst{word: isa.EncMem(isa.OpSTRX, data, base, 0), cls: isa.ClassStore}
				if g.rng.Float64() < g.p.StreamFrac {
					si.stream = g.rng.Intn(len(g.streamPtr))
				} else {
					si.stream = -2
				}
				b.insts = append(b.insts, si)
			default:
				w, cls, dst := g.pickCompute(j, prev)
				b.insts = append(b.insts, synthInst{word: w, cls: cls})
				prev = dst
			}
		}
		// Flag-setting compare before conditional terminators.
		b.insts = append(b.insts, synthInst{
			word: isa.EncI(isa.OpCMPI, 0, g.reg(g.rng.Intn(15)), 64), cls: isa.ClassIntAlu,
		})
		pc += uint64(len(b.insts)+1) * isa.InstSize // +1 for the terminator
		g.blocks = append(g.blocks, b)
	}

	// Terminators, now that every block address is known.
	tr := g.rng
	stubPC := uint64(stubBase + 0x1000)
	for i := range g.blocks {
		b := &g.blocks[i]
		termPC := b.pc + uint64(len(b.insts))*isa.InstSize
		nextPC := uint64(codeBase)
		if i+1 < len(g.blocks) {
			nextPC = g.blocks[i+1].pc
		}
		switch {
		case i == len(g.blocks)-1:
			b.kind = termLoop
			b.target = g.blocks[0].pc
			off := (int64(b.target) - int64(termPC)) / isa.InstSize
			b.condWord = isa.EncBCC(isa.CondNE, off)
		case tr.Float64() < g.p.CallFrac:
			b.kind = termCall
			b.callee = tr.Intn(len(g.funcs))
			b.target = g.funcs[b.callee].pc
			off := (int64(b.target) - int64(termPC)) / isa.InstSize
			b.condWord = isa.EncB(isa.OpBL, off)
		case tr.Float64() < g.p.IndirectFrac*3: // scaled: only block-ends branch
			b.kind = termInd
			b.condWord = isa.EncBR(isa.X(9))
			// Four trampolines, each an unconditional branch to next.
			for s := 0; s < 4; s++ {
				off := (int64(nextPC) - int64(stubPC)) / isa.InstSize
				b.stubs = append(b.stubs, stubPC)
				_ = off
				stubPC += 0x40
			}
			b.target = nextPC
		default:
			b.kind = termCond
			// Taken skips the following block.
			skipTo := uint64(codeBase)
			if i+2 < len(g.blocks) {
				skipTo = g.blocks[i+2].pc
			}
			b.target = skipTo
			off := (int64(skipTo) - int64(termPC)) / isa.InstSize
			b.condWord = isa.EncBCC(isa.CondLT, off)
		}
	}
}

// add appends one event, or drops it once the trace is long enough.
func (g *generator) add(pc uint64, word uint32, memAddr, target uint64, taken bool) {
	if g.b.Len() < g.n {
		g.b.Add(pc, word, memAddr, target, taken)
	}
}

func (g *generator) emit(pc uint64, si synthInst) {
	var mem uint64
	if si.cls.IsMem() {
		mem = g.address(si)
	}
	g.add(pc, si.word, mem, 0, false)
}

// address produces the dynamic effective address for a memory slot.
func (g *generator) address(si synthInst) uint64 {
	switch si.stream {
	case -1: // chase: dependent-random within the working set
		g.chasePtr = dataBase + (g.chasePtr*2862933555777941757+3037000493)&g.wsMask
		return g.chasePtr &^ 7
	case -2: // hot stack region
		return dataBase + uint64(g.rng.Intn(4096))&^7
	default:
		a := g.streamPtr[si.stream]
		g.streamPtr[si.stream] = dataBase + ((a + 64 - dataBase) & g.wsMask)
		return a &^ 7
	}
}

// walk runs the dynamic instruction stream until n events are emitted.
func (g *generator) walk(n int) {
	g.b, g.n = trace.NewBuilder(), n
	i := 0
	for g.b.Len() < n {
		b := &g.blocks[i]
		for j, si := range b.insts {
			g.emit(b.pc+uint64(j)*isa.InstSize, si)
		}
		termPC := b.pc + uint64(len(b.insts))*isa.InstSize
		switch b.kind {
		case termLoop:
			g.add(termPC, b.condWord, 0, b.target, true)
			i = 0
		case termCall:
			g.add(termPC, b.condWord, 0, b.target, true)
			fn := g.funcs[b.callee]
			for j, si := range fn.insts {
				var target uint64
				ret := si.cls == isa.ClassRet
				if ret {
					target = termPC + isa.InstSize
				}
				g.add(fn.pc+uint64(j)*isa.InstSize, si.word, 0, target, ret)
			}
			i++
		case termInd:
			// Markov target choice: mostly repeat the previous target.
			last := g.lastInd[i]
			if g.rng.Float64() > 0.6 {
				last = g.rng.Intn(len(b.stubs))
				g.lastInd[i] = last
			}
			stub := b.stubs[last]
			g.add(termPC, b.condWord, 0, stub, true)
			// The trampoline itself: unconditional branch to next block.
			off := (int64(b.target) - int64(stub)) / isa.InstSize
			g.add(stub, isa.EncB(isa.OpB, off), 0, b.target, true)
			i++
		default: // termCond
			taken := false
			if g.rng.Float64() < g.p.BranchRandom {
				taken = g.rng.Intn(2) == 0
			} else {
				taken = g.rng.Float64() < 0.1 // biased not-taken
			}
			g.add(termPC, b.condWord, 0, b.target, taken)
			if taken {
				i += 2
			} else {
				i++
			}
		}
		if i >= len(g.blocks) {
			i = 0
		}
	}
}
