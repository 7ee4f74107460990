package lmbench

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"racesim/internal/asm"
	"racesim/internal/hw"
	"racesim/internal/isa"
	"racesim/internal/par"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
)

// Estimates are the derived load-to-use latencies in cycles.
type Estimates struct {
	L1Cycles  int
	L2Cycles  int
	MemCycles int
}

// chase is one pointer-chase experiment: a permuted cycle of nodes stride
// bytes apart over sizeBytes, followed for iters loop iterations. The four
// fields are everything its traces are generated from (and so their memo
// key).
type chase struct {
	sizeBytes, stride, iters int
	seed                     int64
}

// chases are the three working sets whose cache-line footprint (nodes x
// 64 B) lands well inside each level: 8 KB for L1, 128 KB for L2 (beyond
// L1, inside both cores' L2), and 2 MB of touched lines spread over 16 MB
// for memory (beyond both L2s).
var chases = [3]chase{
	{8 * 1024, 64, 6000, 1},
	{128 * 1024, 64, 4000, 2},
	{16 * 1024 * 1024, 512, 1500, 3},
}

// bufBase is where every chase's buffer starts.
const bufBase = 0x2000000

// prologue places the buffer and the code.
var prologue = fmt.Sprintf(".equ BUF, %#x\n.org 0x1000\n", bufBase)

// touchPreamble emits a store loop touching every page of the buffer, so
// the chain counts as program-written memory (as lmbench's list
// construction does). It stores at byte 56 of each page: inside the page
// but clear of the 8-byte chain pointers at stride-aligned offsets.
func touchPreamble(sizeBytes int) string {
	pages := sizeBytes / 4096
	if pages < 1 {
		pages = 1
	}
	return fmt.Sprintf("la x27, BUF\nla x26, %d\nmovz x25, #1\ntouch:\nstrx x25, [x27, #56]\naddi x27, x27, #4095\naddi x27, x27, #1\nsubi x26, x26, #1\ncbnz x26, touch\n", pages)
}

// loadsPerIter is the number of dependent loads in the chase loop.
const loadsPerIter = 4

// program builds the pointer-chase program: a permuted cycle of nodes
// spaced stride bytes apart over the buffer (Sattolo-like: node perm[i]
// points to perm[i+1]), touched first (as lmbench does when building its
// list), then chased with loadsPerIter dependent loads per loop iteration.
func (c chase) program() (*isa.Program, error) {
	n := c.sizeBytes / c.stride
	perm := rand.New(rand.NewSource(c.seed)).Perm(n)
	prog, err := asm.Assemble(prologue + touchPreamble(c.sizeBytes) +
		fmt.Sprintf("la x20, BUF+%d\nla x28, %d\n", perm[0]*c.stride, c.iters) + `chase:
ldrx x20, [x20, #0]
ldrx x20, [x20, #0]
ldrx x20, [x20, #0]
ldrx x20, [x20, #0]
subi x28, x28, #1
cbnz x28, chase
halt
`)
	if err != nil {
		return nil, err
	}
	// The chain itself is data: each node holds the absolute address of the
	// next. It goes straight into the image — as ".data/.quad" text the
	// 32768 nodes of the memory chase cost more to assemble than the chase
	// costs to run.
	next := make([]byte, 8*n)
	for i, node := range perm {
		q := next[8*i : 8*i+8]
		binary.LittleEndian.PutUint64(q, bufBase+uint64(perm[(i+1)%n]*c.stride))
		prog.Data = append(prog.Data, isa.Segment{Addr: bufBase + uint64(node*c.stride), Data: q})
	}
	return prog, nil
}

// calibrationProgram is the touch preamble alone.
func (c chase) calibrationProgram() (*isa.Program, error) {
	return asm.Assemble(prologue + touchPreamble(c.sizeBytes) + "halt\n")
}

// recorded returns the memo's trace under key, building the program and
// recording it as name on first request.
func recorded(memo *tracememo.Memo, key, name string, build func() (*isa.Program, error)) (*trace.Trace, error) {
	return memo.Named(key, name, func() (*trace.Trace, error) {
		prog, err := build()
		if err != nil {
			return nil, fmt.Errorf("lmbench: %w", err)
		}
		tr, err := trace.Record(name, prog, 30_000_000)
		if err != nil {
			return nil, fmt.Errorf("lmbench: %w", err)
		}
		return tr, nil
	})
}

func (c chase) chaseKey() string {
	return tracememo.NewKey("lmbench-chase").Open().
		Int("sizeBytes", int64(c.sizeBytes)).Int("stride", int64(c.stride)).
		Int("iters", int64(c.iters)).Int("seed", c.seed).Close().
		String()
}

func (c chase) calibrationKey() string {
	return tracememo.NewKey("lmbench-cal").Int("", int64(c.sizeBytes)).String()
}

// trace returns the chase itself: touch preamble, chain, dependent loads.
func (c chase) trace(memo *tracememo.Memo) (*trace.Trace, error) {
	return recorded(memo, c.chaseKey(), fmt.Sprintf("lmbench-%d", c.sizeBytes), c.program)
}

// calibration returns the trace of the touch preamble alone. Its cycles
// are subtracted from the chase's, so the estimate isolates the chase
// (the loop overhead executes in the shadow of the dependent loads and
// costs ~nothing).
func (c chase) calibration(memo *tracememo.Memo) (*trace.Trace, error) {
	return recorded(memo, c.calibrationKey(), fmt.Sprintf("lmbench-cal-%d", c.sizeBytes), c.calibrationProgram)
}

// Estimate derives L1, L2 and memory latencies from the three chases.
// Their six traces (a chase and its calibration per level) are fetched
// through memo (nil: generated) and measured on the board on up to
// parallelism workers; the estimates do not depend on either.
func Estimate(b *hw.Board, memo *tracememo.Memo, parallelism int) (Estimates, error) {
	var cycles [2 * len(chases)]uint64 // chase, calibration per level
	err := par.ForEach(len(cycles), parallelism, func(i int) error {
		gen := chases[i/2].trace
		if i%2 == 1 {
			gen = chases[i/2].calibration
		}
		tr, err := gen(memo)
		if err != nil {
			return err
		}
		c, err := b.Measure(tr)
		cycles[i] = c.Cycles
		return err
	})
	if err != nil {
		return Estimates{}, err
	}
	// perLoad is the measured cycles per dependent load of one level.
	perLoad := func(level int) int {
		v := float64(cycles[2*level]) - float64(cycles[2*level+1])
		if v <= 0 {
			v = float64(cycles[2*level])
		}
		v /= float64(loadsPerIter * chases[level].iters)
		if v < 1 {
			return 1
		}
		return int(v + 0.5)
	}
	return Estimates{L1Cycles: perLoad(0), L2Cycles: perLoad(1), MemCycles: perLoad(2)}, nil
}

// Snap returns the candidate from vals closest to estimate (used to plug
// estimates into the discrete parameter space).
func Snap(estimate int, vals []int) int {
	best := vals[0]
	for _, v := range vals[1:] {
		d1, d2 := estimate-v, estimate-best
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d1 < d2 {
			best = v
		}
	}
	return best
}
