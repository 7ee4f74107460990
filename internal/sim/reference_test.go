package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/isa"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// The reference simulator: both timing models written a second time, as
// plainly as possible, so the production replay path has an oracle that is
// not itself. The product compiles a trace's distinct decodes into a
// behavior table, walks columnar traces through one step kernel on lanes
// recycled through a free list, keeps every queue in a ring that wraps
// before it is read, and replays the memory hierarchy's decisions from
// tapes. The reference does none of that: it reads one event at a time
// through a trace.Cursor and decodes each with isa.Decoder, keeps registers
// in a map and the whole history of every queue, buffer and issue group in
// growing slices, books the functional-unit pipes itself, and builds a
// fresh, live cache hierarchy and branch unit for every run. It shares with
// the product only core's configuration and result types and the cache,
// prefetch, DRAM and branch units, which have unit tests of their own.
//
// It is slow on purpose and must stay independent: it calls no core
// function, no trace.(*Trace).Decoded and no sim.Behaviors. A change to the
// models changes this file too, or TestReferenceMatchesProductionOnSampledConfigs
// fails.

// refRun replays tr under cfg on the reference simulator. Like the product,
// it turns the zero-fill page optimization off for a trace that declares
// WarmData: the hardware behaviour only exists for never-written pages.
func refRun(cfg sim.Config, tr *trace.Trace) (core.Result, error) {
	if tr.WarmData {
		cfg.Mem.ZeroFillOpt = false
	}
	hier, err := cache.NewHierarchy(cfg.Mem)
	if err != nil {
		return core.Result{}, err
	}
	bu, err := branch.NewUnit(cfg.Branch)
	if err != nil {
		return core.Result{}, err
	}
	m := &refMachine{
		cfg:   cfg,
		hier:  hier,
		bu:    bu,
		regs:  map[isa.Reg]uint64{},
		pipes: map[string][]uint64{},
	}
	step := m.stepInOrder
	switch cfg.Kind {
	case core.InOrder:
	case core.OutOfOrder:
		step = m.stepOoO
	default:
		return core.Result{}, fmt.Errorf("sim: unknown core kind %q", cfg.Kind)
	}
	cur, err := trace.NewCursor(tr)
	if err != nil {
		return core.Result{}, err
	}
	dec := isa.Decoder{DepBug: cfg.DecoderDepBug}
	for ev, ok := cur.Next(); ok; ev, ok = cur.Next() {
		// The product decodes each distinct word once, at PC 0, so a
		// decode error names PC 0 there; decoding at 0 here keeps the
		// two error texts comparable.
		in, err := dec.Decode(0, ev.Word)
		if err != nil {
			return core.Result{}, fmt.Errorf("core: %w", err)
		}
		in.PC, in.MemAddr, in.Target, in.Taken = ev.PC, ev.MemAddr, ev.Target, ev.Taken
		m.res.Instructions++
		m.res.ClassCounts[in.Cls]++
		step(&in)
	}
	res := m.res
	res.Cycles = m.end
	if res.Cycles == 0 {
		res.Cycles = res.Instructions // a trace that never retired anything
	}
	res.Branch = bu.Stats()
	res.Mem = hier.Stats()
	return res, nil
}

// refMachine is one reference run of either core kind.
type refMachine struct {
	cfg  sim.Config
	hier *cache.Hierarchy
	bu   *branch.Unit

	regs  map[isa.Reg]uint64  // cycle each register's value is ready
	pipes map[string][]uint64 // per pipe group: when each pipe is next free

	fetchAvail uint64 // the front end delivers nothing before this cycle
	fetched    bool   // whether line holds the last fetched instruction-cache line
	line       uint64

	misses []uint64 // completion cycle of every access that took an MSHR
	drains []uint64 // drain-end cycle of every store, in program order

	// In-order only.
	clock uint64    // the cycle the pipeline has reached: nothing issues before it
	slots []refSlot // every issue slot taken, in order

	// Out-of-order only.
	dispatched []uint64 // dispatch cycle of every instruction
	issued     []uint64 // issue cycle of every instruction, before any MSHR wait
	loads      []uint64 // completion cycle of every load
	retired    []uint64 // retirement cycle of every instruction

	end uint64 // the last cycle anything retired
	res core.Result
}

// refSlot is an in-order issue slot: the cycle it was taken in, and what
// took it.
type refSlot struct {
	cycle   uint64
	mem, br bool
}

// refLatency is an instruction class's execution latency; loads and
// stores take theirs from the memory hierarchy.
func refLatency(lat core.LatencyConfig, cls isa.Class) uint64 {
	switch cls {
	case isa.ClassIntAlu:
		return uint64(lat.IntALU)
	case isa.ClassIntMul:
		return uint64(lat.IntMul)
	case isa.ClassIntDiv:
		return uint64(lat.IntDiv)
	case isa.ClassFPAdd:
		return uint64(lat.FPAdd)
	case isa.ClassFPMul:
		return uint64(lat.FPMul)
	case isa.ClassFPDiv:
		return uint64(lat.FPDiv)
	case isa.ClassFPCvt:
		return uint64(lat.FPCvt)
	case isa.ClassSIMD:
		return uint64(lat.SIMD)
	}
	return 1 // branches and nops
}

// refPipeGroup names the pipe group that executes cls, how many pipes it
// has and how many cycles a pipe stays busy per instruction. Nops use no
// pipe (n = 0).
func refPipeGroup(cfg sim.Config, cls isa.Class) (name string, n int, busy uint64) {
	switch cls {
	case isa.ClassIntAlu:
		return "int-alu", cfg.Pipes.IntALU, 1
	case isa.ClassIntMul:
		return "int-mul", cfg.Pipes.IntMul, 1
	case isa.ClassIntDiv:
		return "int-div", cfg.Pipes.IntDiv, uint64(cfg.Lat.IntDivII)
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPCvt, isa.ClassSIMD:
		return "fp", cfg.Pipes.FP, 1
	case isa.ClassFPDiv:
		return "fp-div", cfg.Pipes.FPDiv, uint64(cfg.Lat.FPDivII)
	case isa.ClassLoad:
		return "load", cfg.Pipes.Load, 1
	case isa.ClassStore:
		return "store", cfg.Pipes.Store, 1
	case isa.ClassBranch, isa.ClassBranchInd, isa.ClassCall, isa.ClassRet:
		return "branch", cfg.Pipes.Branch, 1
	}
	return "", 0, 0
}

// pipeFree returns the pipe of cls's group that accepts an instruction
// first and the cycle it does; ok is false when cls uses no pipe.
func (m *refMachine) pipeFree(cls isa.Class) (pipe int, free uint64, ok bool) {
	name, n, _ := refPipeGroup(m.cfg, cls)
	if n == 0 {
		return 0, 0, false
	}
	if m.pipes[name] == nil {
		m.pipes[name] = make([]uint64, n)
	}
	for i, f := range m.pipes[name] {
		if i == 0 || f < free {
			pipe, free = i, f
		}
	}
	return pipe, free, true
}

// bookPipe occupies pipe of cls's group from cycle at.
func (m *refMachine) bookPipe(cls isa.Class, pipe int, at uint64) {
	name, _, busy := refPipeGroup(m.cfg, cls)
	m.pipes[name][pipe] = at + busy
}

// fetch reads pc's line from the instruction cache when the front end
// moves onto a new line, and returns when an instruction that could leave
// the front end at earliest actually does.
func (m *refMachine) fetch(pc, earliest uint64) uint64 {
	line := pc / uint64(m.cfg.Mem.L1I.LineSize)
	if m.fetched && line == m.line {
		return earliest
	}
	m.fetched, m.line = true, line
	lat := m.hier.Fetch(earliest, pc).Latency
	if hit := m.cfg.Mem.L1I.HitCycles(); lat > hit {
		m.res.StallFrontEnd += lat - hit
		earliest += lat - hit
		m.fetchAvail = max(m.fetchAvail, earliest)
	}
	return earliest
}

// operands returns the first cycle from `from` on at which every source
// register of in is ready, counting the wait as a data stall.
func (m *refMachine) operands(in *isa.Inst, from uint64) uint64 {
	ready := from
	for _, r := range in.Srcs() {
		ready = max(ready, m.regs[r])
	}
	m.res.StallData += ready - from
	return ready
}

// writes marks in's destination registers ready at cycle at.
func (m *refMachine) writes(in *isa.Inst, at uint64) {
	for _, r := range in.Dsts() {
		m.regs[r] = at
	}
}

// branch predicts branch in, which resolves at cycle resolved and was seen
// by the front end at cycle seen, and redirects the front end when the
// prediction was wrong: a wrong direction or target restarts the pipeline
// after the resolve, a missing target in the BTB costs a shorter refetch.
func (m *refMachine) branch(in *isa.Inst, resolved, seen uint64) {
	out := m.bu.AccessOutcome(in.Cls, in.Op, in.PC, in.Target, in.Taken)
	switch {
	case out.Mispredict:
		pen := uint64(m.cfg.FrontEnd.MispredictPenalty)
		m.fetchAvail = max(m.fetchAvail, resolved+pen)
		m.res.StallFrontEnd += pen
	case out.TargetMiss:
		pen := uint64(m.cfg.FrontEnd.BTBMissPenalty)
		m.fetchAvail = max(m.fetchAvail, seen+pen)
		m.res.StallFrontEnd += pen
	}
}

// refOlder returns history's n-th entry from the end, or 0 while it holds
// fewer than n. When history lists the cycles at which a structure of n
// entries frees its allocations, that is when the next allocation's entry
// frees.
func refOlder(history []uint64, n int) uint64 {
	if len(history) < n {
		return 0
	}
	return history[len(history)-n]
}

// refWait returns how long something allocated at cycle t in a structure of
// n entries, whose allocations so far free at history, waits for an entry.
func refWait(history []uint64, n int, t uint64) uint64 {
	if free := refOlder(history, n); free > t {
		return free - t
	}
	return 0
}

// refGroupSlot returns the first cycle from `from` on that is no earlier
// than anything in history (a non-decreasing list of cycles) and holds
// fewer than width of its entries.
func refGroupSlot(history []uint64, from uint64, width int) uint64 {
	t := from
	if len(history) > 0 {
		t = max(t, history[len(history)-1])
	}
	for {
		n := 0
		for i := len(history) - 1; i >= 0 && history[i] == t; i-- {
			n++
		}
		if n < width {
			return t
		}
		t++
	}
}

// stepInOrder runs one instruction through the in-order model: fetch,
// operands from the scoreboard, an issue slot under the pairing rules and
// a free pipe, then the memory access or execution.
func (m *refMachine) stepInOrder(in *isa.Inst) {
	cfg := &m.cfg
	earliest := m.fetch(in.PC, max(m.fetchAvail, m.clock))
	issueAt := m.issueSlot(in, m.operands(in, earliest))

	switch in.Cls {
	case isa.ClassLoad:
		if !m.hier.Probe(in.MemAddr) {
			// A miss takes an MSHR, and a load that finds none free holds
			// the pipeline until one is: hit-under-miss, not miss-under-full.
			if d := refWait(m.misses, cfg.MSHRs, issueAt); d > 0 {
				m.res.StallStruct += d
				issueAt += d
				m.clock = max(m.clock, issueAt)
			}
		}
		res := m.hier.Load(issueAt, in.PC, in.MemAddr)
		done := issueAt + res.Latency
		if res.Level > 1 {
			m.misses = append(m.misses, done)
		}
		m.writes(in, done)
		m.end = max(m.end, done)

	case isa.ClassStore:
		// A store holds the pipeline while the store buffer is full; its
		// drains run one at a time, in order, in the background.
		if d := refWait(m.drains, cfg.StoreBufferEntries, issueAt); d > 0 {
			m.res.StallStruct += d
			issueAt += d
			m.clock = max(m.clock, issueAt)
		}
		start := max(issueAt, refOlder(m.drains, 1))
		m.drains = append(m.drains, start+m.hier.Store(start, in.PC, in.MemAddr).Latency)
		m.end = max(m.end, issueAt+1)

	default:
		done := issueAt + refLatency(cfg.Lat, in.Cls)
		if in.Cls.IsBranch() {
			m.branch(in, done, issueAt)
		}
		m.writes(in, done)
		m.end = max(m.end, done)
	}
}

// issueSlot takes the first in-order issue slot at or after cycle ready
// that the issue group and a pipe allow, and returns its cycle. A group
// holds up to Width instructions, of which up to MaxMemPerCycle memory
// operations and MaxBranchPerCycle branches; without DualIssueLoadStore a
// memory operation issues alone.
func (m *refMachine) issueSlot(in *isa.Inst, ready uint64) uint64 {
	cfg := &m.cfg
	mem, br := in.Cls.IsMem(), in.Cls.IsBranch()
	t := ready
	for {
		m.clock = max(m.clock, t)
		c := m.clock
		var n, nMem, nBr int
		alone := false
		for i := len(m.slots) - 1; i >= 0 && m.slots[i].cycle == c; i-- {
			n++
			if m.slots[i].mem {
				nMem++
				alone = alone || !cfg.DualIssueLoadStore
			}
			if m.slots[i].br {
				nBr++
			}
		}
		if n >= cfg.Width || alone ||
			mem && (nMem >= cfg.MaxMemPerCycle || !cfg.DualIssueLoadStore && n > 0) ||
			br && nBr >= cfg.MaxBranchPerCycle {
			t = c + 1
			continue
		}
		if pipe, free, ok := m.pipeFree(in.Cls); ok {
			if free > c {
				m.res.StallStruct += free - c
				t = free
				continue
			}
			m.bookPipe(in.Cls, pipe, c)
		}
		m.slots = append(m.slots, refSlot{cycle: c, mem: mem, br: br})
		return c
	}
}

// stepOoO runs one instruction through the out-of-order model: a window
// entry (ROB, issue queue, load or store queue), fetch, a dispatch slot,
// dataflow issue on a free pipe, the memory access or execution, and
// in-order retirement.
func (m *refMachine) stepOoO(in *isa.Inst) {
	cfg := &m.cfg
	// The instructions ROBEntries and IQEntries older must have retired
	// and issued; a load or store also needs its queue's entry back.
	earliest := m.fetchAvail
	for _, free := range []uint64{refOlder(m.retired, cfg.ROBEntries), refOlder(m.issued, cfg.IQEntries)} {
		if free > earliest {
			m.res.StallStruct += free - earliest
			earliest = free
		}
	}
	switch in.Cls {
	case isa.ClassLoad:
		earliest = max(earliest, refOlder(m.loads, cfg.LQEntries))
	case isa.ClassStore:
		earliest = max(earliest, refOlder(m.drains, cfg.SQEntries))
	}
	earliest = m.fetch(in.PC, earliest)

	dispatchAt := refGroupSlot(m.dispatched, earliest, cfg.DispatchWidth)
	m.dispatched = append(m.dispatched, dispatchAt)

	// An instruction can issue a cycle after dispatch at the earliest.
	ready := m.operands(in, dispatchAt+1)
	issueAt := ready
	if pipe, free, ok := m.pipeFree(in.Cls); ok {
		issueAt = max(ready, free)
		m.res.StallStruct += issueAt - ready
		m.bookPipe(in.Cls, pipe, issueAt)
	}
	m.issued = append(m.issued, issueAt)

	var complete uint64
	switch in.Cls {
	case isa.ClassLoad:
		if !m.hier.Probe(in.MemAddr) {
			// A miss issues only with a free MSHR: memory-level
			// parallelism is bounded by their number.
			if d := refWait(m.misses, cfg.MSHRs, issueAt); d > 0 {
				m.res.StallStruct += d
				issueAt += d
			}
		}
		res := m.hier.Load(issueAt, in.PC, in.MemAddr)
		complete = issueAt + res.Latency
		if res.Level > 1 {
			m.misses = append(m.misses, complete)
		}
		m.loads = append(m.loads, complete)

	case isa.ClassStore:
		// The drain runs in the background, one store at a time, and holds
		// the store's queue entry (and an MSHR if it misses) until done.
		start := max(issueAt, refOlder(m.drains, 1))
		res := m.hier.Store(start, in.PC, in.MemAddr)
		if res.Level > 1 {
			m.misses = append(m.misses, start+res.Latency)
		}
		m.drains = append(m.drains, start+res.Latency)
		complete = issueAt + 1

	default:
		complete = issueAt + refLatency(cfg.Lat, in.Cls)
		if in.Cls.IsBranch() {
			m.branch(in, complete, dispatchAt)
		}
	}
	m.writes(in, complete)

	// Retirement is in order, RetireWidth a cycle, from the cycle after
	// completion.
	retire := refGroupSlot(m.retired, complete+1, cfg.RetireWidth)
	m.retired = append(m.retired, retire)
	m.end = max(m.end, retire)
}

// reference replays tr under cfg on the reference simulator and fails the
// test on an error.
func reference(t testing.TB, cfg sim.Config, tr *trace.Trace) core.Result {
	t.Helper()
	res, err := refRun(cfg, tr)
	if err != nil {
		t.Fatalf("reference: %s on %s: %v", cfg.Name, tr.Name, err)
	}
	return res
}

// referenceTraces returns short traces of both sources: emulated
// micro-benchmarks on cold data (zero-fill pages) that load the memory
// levels, miss registers, store buffer, branch unit and divide and FP
// pipes, and synthesized Table II workloads, which declare WarmData.
func referenceTraces(t testing.TB) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, name := range []string{"MD", "STL2", "CS3", "ED1", "DPcvt"} {
		b, ok := ubench.ByName(name)
		if !ok {
			t.Fatalf("missing micro-benchmark %s", name)
		}
		tr, err := b.Trace(ubench.Options{Scale: 0.0001})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	for _, name := range []string{"mcf", "povray", "gcc"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		tr, err := workload.Generate(p, workload.Options{Events: 1500})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// sampleConfig draws a configuration from base's tuning space: every
// tunable sampled uniformly (irace.SampleUniform) and applied to base,
// drawn again while the combination is invalid.
func sampleConfig(t testing.TB, base sim.Config, rng *rand.Rand) sim.Config {
	t.Helper()
	sp, err := sim.Space(base.Kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tries := 0; tries < 100; tries++ {
		if cfg, err := sim.Apply(base, irace.SampleUniform(sp, rng)); err == nil {
			return cfg
		}
	}
	t.Fatalf("no valid %s configuration in 100 samples", base.Kind)
	return sim.Config{}
}

// sampledConfigs returns both presets, their variants with the other
// decoder, every board's hidden configuration, and n configurations
// sampled from the tuning spaces of both core kinds in turn, in both
// decoder variants.
func sampledConfigs(t testing.TB, n int, rng *rand.Rand) []sim.Config {
	t.Helper()
	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	presets := []sim.Config{sim.PublicA53(), sim.PublicA72()}
	out := append([]sim.Config{}, presets...)
	for _, p := range presets {
		p.DecoderDepBug = !p.DecoderDepBug
		out = append(out, p)
	}
	out = append(out, plat.A53.TrueConfig(), plat.A72.TrueConfig())
	for i := 0; i < n; i++ {
		cfg := sampleConfig(t, presets[i%2], rng)
		cfg.Name = fmt.Sprintf("%s-sample-%d", cfg.Kind, i)
		cfg.DecoderDepBug = i/2%2 == 0
		out = append(out, cfg)
	}
	return out
}

// TestReferenceMatchesProductionOnSampledConfigs holds the product to the
// reference simulator: every field of every Result must be equal, for the
// presets, their decoder variants, the boards' hidden configurations and
// a few hundred configurations sampled from both tuning spaces, over cold
// micro-benchmarks and warm workloads. Each configuration runs through
// Config.Run three times on one decode — its tape key's first sighting
// (live), second (recording) and third (replaying the tape) — and then,
// with every configuration of its decoder variant, through one RunBatch on
// recycled lanes. Run with -race in CI: the product side runs the
// batches of every trace at once.
func TestReferenceMatchesProductionOnSampledConfigs(t *testing.T) {
	cfgs := sampledConfigs(t, 200, rand.New(rand.NewSource(37)))
	trs := referenceTraces(t)
	want := make([][]core.Result, len(trs))
	for i, tr := range trs {
		for _, cfg := range cfgs {
			want[i] = append(want[i], reference(t, cfg, tr))
		}
	}
	check := func(how string, cfg sim.Config, tr *trace.Trace, got, want core.Result) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s on %s differs from the reference\n product   %+v\n reference %+v", how, cfg.Name, tr.Name, got, want)
		}
	}

	for i, tr := range trs {
		for j, cfg := range cfgs {
			d := tr.Decoded(cfg.DecoderDepBug)
			before := sim.TapeStats(d)
			for _, how := range []string{"live", "recording", "replaying"} {
				got, err := cfg.Run(tr)
				if err != nil {
					t.Fatalf("%s: %s on %s: %v", how, cfg.Name, tr.Name, err)
				}
				check(how, cfg, tr, got, want[i][j])
			}
			after := sim.TapeStats(d)
			if after.Live != before.Live+1 || after.Recorded != before.Recorded+1 || after.Replayed != before.Replayed+1 {
				t.Fatalf("%s on %s: memo went from %+v to %+v: want one live run, one recording and one replay", cfg.Name, tr.Name, before, after)
			}
		}
	}

	var wg sync.WaitGroup
	for i, tr := range trs {
		for _, depBug := range []bool{false, true} {
			var batch []sim.Config
			var slots []int
			for j, cfg := range cfgs {
				if cfg.DecoderDepBug == depBug {
					batch, slots = append(batch, cfg), append(slots, j)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs, err := sim.RunBatch(batch, tr.Decoded(depBug))
				if err != nil {
					t.Errorf("batched: %s: %v", tr.Name, err)
					return
				}
				for k, j := range slots {
					check("batched", cfgs[j], tr, rs[k], want[i][j])
				}
			}()
		}
	}
	wg.Wait()
}
