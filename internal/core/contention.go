package core

import "racesim/internal/isa"

// contention tracks functional-unit pipe occupancy. Each class group owns a
// small array of pipes; an instruction issues on the pipe that frees
// earliest, at no earlier than its ready cycle, and occupies it for the
// class's initiation interval. The class-to-group mapping is resolved into
// per-class tables at construction so the hot path indexes instead of
// switching; classes outside every group (nop) get a nil pipe slice.
// The pipe slices point into the contention's own slots array, so a
// contention must not be copied once reset: lanes own one each and are
// only ever handled by pointer.
type contention struct {
	pipes [isa.NumClasses][]uint64
	ii    [isa.NumClasses]uint64
	slots [8 * maxPipes]uint64 // backing store: eight groups of up to maxPipes

	// stalls counts cycles lost waiting for a structural resource.
	stalls uint64
}

// reset frees every pipe and maps the classes to pipe groups per p and lat.
func (c *contention) reset(p PipesConfig, lat LatencyConfig) {
	*c = contention{}
	used := 0
	group := func(n int, ii int, classes ...isa.Class) {
		pipes := c.slots[used : used+n : used+n]
		used += n
		for _, cls := range classes {
			c.pipes[cls] = pipes
			c.ii[cls] = uint64(ii)
		}
	}
	group(p.IntALU, 1, isa.ClassIntAlu)
	group(p.IntMul, 1, isa.ClassIntMul)
	group(p.IntDiv, lat.IntDivII, isa.ClassIntDiv)
	group(p.FP, 1, isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPCvt, isa.ClassSIMD)
	group(p.FPDiv, lat.FPDivII, isa.ClassFPDiv)
	group(p.Load, 1, isa.ClassLoad)
	group(p.Store, 1, isa.ClassStore)
	group(p.Branch, 1, isa.ClassBranch, isa.ClassBranchInd, isa.ClassCall, isa.ClassRet)
}

func bestPipe(pipes []uint64) int {
	best := 0
	for i := 1; i < len(pipes); i++ {
		if pipes[i] < pipes[best] {
			best = i
		}
	}
	return best
}

// issue reserves a pipe for cls no earlier than ready and returns the
// actual issue cycle. The earliest-free pipe is found and booked in one
// scan.
func (c *contention) issue(cls isa.Class, ready uint64) uint64 {
	pipes := c.pipes[cls]
	if len(pipes) == 0 {
		return ready
	}
	bp := bestPipe(pipes)
	at := max(ready, pipes[bp])
	c.stalls += at - ready
	pipes[bp] = at + c.ii[cls]
	return at
}
