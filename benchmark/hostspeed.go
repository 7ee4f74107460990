package main

import (
	"sync"
)

// The host's speed. After the steal correction (see stopwatch) the shared
// hosts this benchmark runs on still change speed, in spells that outlast
// a run: identical work, no steal, and every run of one quarter of an hour
// comes out a third slower than every run of the quarter before (neighbours
// on the same cores and caches; nothing the guest can count). A run
// therefore measures the host beside the program: a fixed piece of work of
// the benchmark's own, sampled around every set-up and every timed
// iteration, and reports its host times in reference-host seconds: the
// measured median divided by how many times slower than the reference host
// the run's median sample was. Between two sets of ten runs per workload
// during which the host slowed by 37%, the uncorrected medians moved by
// +31%, +35% and +25%, the corrected ones by +8%, -1% and -4%
// (baseline/spreads.md).
//
// The work has to slow down when the program does. Pointer chases and
// integer loops did not (no narrower spread); a miniature of the program
// does: a trace-driven core model with set-associative caches, a linearly
// scanned TLB and a gshare predictor, fed a synthetic stream. It calls
// nothing of the program under test, so no change to the program can make
// it faster, and bench_test.go pins its result so that it is not changed
// by accident: every recorded number is in its units.

// refSim is that miniature.
type refSim struct {
	l1tag, l1age   [128 * 4]uint64
	l2tag, l2age   [1024 * 16]uint64
	tlbTag, tlbAge [64]uint64
	pht            [1 << 14]uint8
	hist           uint64
	now, cycles    uint64
	x              uint64 // xorshift state: the instruction stream
}

// lookup is one access to a set-associative array with timestamp LRU.
func (m *refSim) lookup(tags, ages []uint64, sets, ways int, line uint64) bool {
	set := int(line%uint64(sets)) * ways
	victim, oldest := set, ^uint64(0)
	for w := set; w < set+ways; w++ {
		if tags[w] == line+1 {
			ages[w] = m.now
			return true
		}
		if ages[w] < oldest {
			victim, oldest = w, ages[w]
		}
	}
	tags[victim], ages[victim] = line+1, m.now
	return false
}

// run simulates n instructions: a third memory operations (mostly a
// stride through a 256 KB region, the rest anywhere in 16 MB), a sixth
// branches, the rest single-cycle.
func (m *refSim) run(n int) uint64 {
	base, stride := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		m.now++
		m.x ^= m.x << 13
		m.x ^= m.x >> 7
		m.x ^= m.x << 17
		r := m.x
		switch r % 6 {
		case 0, 1:
			var addr uint64
			if r>>8%10 < 7 {
				stride += 8
				addr = base + stride%(256<<10)
			} else {
				addr = (r >> 16) % (16 << 20)
				if r>>12%64 == 0 {
					base = addr &^ 4095
				}
			}
			page, hit := addr>>12, false
			victim, oldest := 0, ^uint64(0)
			for e := range m.tlbTag {
				if m.tlbTag[e] == page+1 {
					m.tlbAge[e], hit = m.now, true
					break
				}
				if m.tlbAge[e] < oldest {
					victim, oldest = e, m.tlbAge[e]
				}
			}
			if !hit {
				m.tlbTag[victim], m.tlbAge[victim] = page+1, m.now
				m.cycles += 20
			}
			line := addr >> 6
			if !m.lookup(m.l1tag[:], m.l1age[:], 128, 4, line) {
				m.cycles += 10
				if !m.lookup(m.l2tag[:], m.l2age[:], 1024, 16, line) {
					m.cycles += 150
				}
			}
		case 2:
			pc, taken := (r>>20)%4096, (r>>40)%8 < 5
			idx := (pc ^ m.hist) % uint64(len(m.pht))
			c := m.pht[idx]
			if (c >= 2) != taken {
				m.cycles += 12
			}
			if taken && c < 3 {
				m.pht[idx] = c + 1
			} else if !taken && c > 0 {
				m.pht[idx] = c - 1
			}
			m.hist = m.hist<<1 | r>>40&1
		default:
			m.cycles++
		}
	}
	return m.cycles
}

const (
	refInstructions = 2_500_000
	// refSeconds is one sample's time on the 2-core reference host in a
	// quiet spell.
	refSeconds = 0.117
)

// hostSpeed samples the host and turns the samples of a run into its
// slowdown against the reference host.
type hostSpeed struct {
	sims    []*refSim // one per vCPU: the samples load every core, as the workloads do
	samples []float64
}

func newHostSpeed(par int) *hostSpeed {
	h := &hostSpeed{sims: make([]*refSim, par)}
	for g := range h.sims {
		h.sims[g] = new(refSim)
	}
	return h
}

// sample runs the reference work from its initial state on every vCPU at
// once and records the time until the last has finished, steal-corrected
// like everything else.
func (h *hostSpeed) sample() {
	w := startWatch()
	var wg sync.WaitGroup
	for g, m := range h.sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			*m = refSim{x: 0x9E3779B97F4A7C15 + uint64(g)}
			m.run(refInstructions)
		}()
	}
	wg.Wait()
	h.samples = append(h.samples, w.stop().Wall)
}

// slowdown is how many times slower than the reference host this host
// was over the samples taken.
func (h *hostSpeed) slowdown() float64 {
	return median(h.samples) / refSeconds
}
