package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/cluster"
	"racesim/internal/core"
	"racesim/internal/dram"
	"racesim/internal/engine"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/isa"
	"racesim/internal/par"
	"racesim/internal/perturb"
	"racesim/internal/plausibility"
	"racesim/internal/prefetch"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/stats"
	"racesim/internal/telemetry"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/validate"
	"racesim/internal/workload"
)

// The per-layer probes of the traced run. Each probe calls one layer's
// public API on the workload's own inputs (its micro-benchmark scale, its
// Table II trace length, its seed) inside a span, and turns the timing or
// the counters into a metric. Replay kernels are driven single-threaded.

// metricSet collects metric values by name and refuses duplicates, so
// "emitted exactly once" holds by construction.
type metricSet struct {
	vals map[string]float64
	errs []string
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]float64{}} }

func (m *metricSet) set(name string, v float64) {
	if _, dup := m.vals[name]; dup {
		m.errs = append(m.errs, "metric "+name+" set twice")
		return
	}
	m.vals[name] = v
}

// prober carries what the probes share.
type prober struct {
	env    *runEnv
	rec    *telemetry.Recorder
	root   telemetry.SpanContext
	m      *metricSet
	checks []checkResult

	plat        *hw.Platform
	scale       float64 // micro-benchmark scale of this workload
	events      int     // Table II trace length of this workload
	suite, spec []*trace.Trace
}

func (p *prober) span(name string) *telemetry.ActiveSpan {
	return p.rec.StartSpan(name, p.root, nil)
}

func (p *prober) all() []*trace.Trace {
	return append(append([]*trace.Trace(nil), p.suite...), p.spec...)
}

func totalLen(trs []*trace.Trace) int {
	n := 0
	for _, tr := range trs {
		n += tr.Len()
	}
	return n
}

// minstPerS converts nanoseconds per instruction to million instructions
// per second.
func minstPerS(nsPerInst float64) float64 {
	if nsPerInst == 0 {
		return 0
	}
	return 1e3 / nsPerInst
}

// sampleConfigs returns base plus n-1 valid configurations drawn uniformly
// from base's tunable space: the seed-derived sample of the config space
// the replay kernels are measured on.
func sampleConfigs(base sim.Config, n int, rng *rand.Rand) []sim.Config {
	defs := sim.Params(base.Kind)
	out := []sim.Config{base}
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		a := irace.Assignment{}
		for _, d := range defs {
			a[d.Name] = d.Values[rng.Intn(len(d.Values))]
		}
		if cfg, err := sim.Apply(base, a); err == nil {
			out = append(out, cfg)
		}
	}
	return out
}

// generate times trace generation layer by layer and leaves the fresh
// traces (never digested, decoded or replayed) for the next probes.
func (p *prober) generate() error {
	sp := p.span("ubench.trace")
	t0 := time.Now()
	for _, b := range ubench.Suite()[:p.env.size.ProbeSuite] {
		tr, err := b.Trace(ubench.Options{Scale: p.scale})
		if err != nil {
			return err
		}
		p.suite = append(p.suite, tr)
	}
	d := time.Since(t0).Seconds()
	sp.End()
	insts := totalLen(p.suite)
	p.m.set("ubench.gen_s", d)
	p.m.set("ubench.insts", float64(insts))
	p.m.set("ubench.gen_minst_per_s", float64(insts)/d/1e6)

	sp = p.span("workload.generate")
	t0 = time.Now()
	for _, prof := range workload.Profiles()[:p.env.size.ProbeSpec] {
		tr, err := workload.Generate(prof, workload.Options{Events: p.events, Seed: p.env.seed})
		if err != nil {
			return err
		}
		p.spec = append(p.spec, tr)
	}
	p.m.set("workload.gen_s", time.Since(t0).Seconds())
	sp.End()
	p.m.set("workload.insts", float64(totalLen(p.spec)))

	sp = p.span("trace.digest")
	t0 = time.Now()
	for _, tr := range p.all() {
		tr.Digest()
	}
	p.m.set("trace.digest_s", time.Since(t0).Seconds())
	sp.End()

	// Both decoder variants: the public models replay the DepBug decode,
	// the reference boards the correct one.
	sp = p.span("trace.decode")
	t0 = time.Now()
	for _, tr := range p.all() {
		tr.Decoded(true)
		tr.Decoded(false)
	}
	d = time.Since(t0).Seconds()
	sp.End()
	p.m.set("trace.decode_s", d)
	p.m.set("trace.decode_minst_per_s", 2*float64(totalLen(p.all()))/d/1e6)

	sp = p.span("sim.behaviors")
	t0 = time.Now()
	for _, tr := range p.all() {
		sim.Behaviors(tr.Decoded(true))
		sim.Behaviors(tr.Decoded(false))
	}
	p.m.set("sim.behaviors_s", time.Since(t0).Seconds())
	sp.End()

	sp = p.span("hw.measure")
	t0 = time.Now()
	for _, tr := range p.suite {
		if _, err := p.plat.A53.Measure(tr); err != nil {
			return err
		}
	}
	p.m.set("hw.measure_s", time.Since(t0).Seconds())
	sp.End()
	return nil
}

// replayRate is the single-threaded RunDecoded rate of cfgs x trs.
func (p *prober) replayRate(cfgs []sim.Config, trs []*trace.Trace) (float64, error) {
	var failed error
	ns := timeOps(p.env.size.ProbeDur, nil, func() int {
		insts := 0
		for _, cfg := range cfgs {
			for _, tr := range trs {
				res, err := cfg.RunDecoded(tr.Decoded(cfg.DecoderDepBug))
				if err != nil {
					failed = err
					return 0
				}
				insts += int(res.Instructions)
			}
		}
		return insts
	})
	return minstPerS(ns), failed
}

// replay measures the replay kernel and checks its results.
func (p *prober) replay() error {
	rng := rand.New(rand.NewSource(p.env.seed))
	inorder := sampleConfigs(sim.PublicA53(), 8, rng)
	ooo := sampleConfigs(sim.PublicA72(), 3, rng)

	sp := p.span("sim.run_decoded")
	for _, r := range []struct {
		name string
		cfgs []sim.Config
		trs  []*trace.Trace
	}{
		{"sim.inorder_ubench_minst_per_s", inorder[:3], p.suite},
		{"sim.inorder_spec_minst_per_s", inorder[:3], p.spec},
		{"sim.ooo_ubench_minst_per_s", ooo, p.suite},
		{"sim.ooo_spec_minst_per_s", ooo, p.spec},
	} {
		rate, err := p.replayRate(r.cfgs, r.trs)
		if err != nil {
			return err
		}
		p.m.set(r.name, rate)
	}
	sp.End()

	// Lane batching: one RunBatch of 8 configs against 8 RunDecoded calls
	// on the suite, results compared lane by lane.
	sp = p.span("sim.run_batch")
	equal := check("run_batch_equals_run_decoded", true, "")
	var failed error
	seqNS := timeOps(p.env.size.ProbeDur, nil, func() int {
		for _, tr := range p.suite {
			for _, cfg := range inorder {
				if _, err := cfg.RunDecoded(tr.Decoded(cfg.DecoderDepBug)); err != nil {
					failed = err
				}
			}
		}
		return len(p.suite)
	})
	batchNS := timeOps(p.env.size.ProbeDur, nil, func() int {
		for _, tr := range p.suite {
			if _, err := sim.RunBatch(inorder, tr.Decoded(true)); err != nil {
				failed = err
			}
		}
		return len(p.suite)
	})
	if failed != nil {
		return failed
	}
	for _, tr := range p.all() {
		d := tr.Decoded(true)
		rs, err := sim.RunBatch(inorder, d)
		if err != nil {
			return err
		}
		for i, cfg := range inorder {
			one, err := cfg.RunDecoded(d)
			if err != nil {
				return err
			}
			if one != rs[i] {
				equal = check("run_batch_equals_run_decoded", false, "trace %s, lane %d: results differ", tr.Name, i)
			}
		}
	}
	sp.End()
	p.checks = append(p.checks, equal)
	if batchNS > 0 {
		p.m.set("sim.batch8_speedup", seqNS/batchNS)
	} else {
		p.m.set("sim.batch8_speedup", 0)
	}

	// Allocation per simulation.
	var before, after runtime.MemStats
	pub := sim.PublicA53()
	runtime.ReadMemStats(&before)
	for _, tr := range p.suite {
		if _, err := pub.RunDecoded(tr.Decoded(true)); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(p.suite))
	p.m.set("sim.allocs_per_run", float64(after.Mallocs-before.Mallocs)/n)
	p.m.set("sim.alloc_kb_per_run", float64(after.TotalAlloc-before.TotalAlloc)/n/1024)
	return nil
}

// simulated sums the simulated statistics of both public models over every
// trace of the workload (modelled caches start empty) and asserts the
// plausibility invariants on each result.
func (p *prober) simulated() error {
	sp := p.span("sim.statistics")
	defer sp.End()
	var sum core.Result
	var pfIssued, pfUseful uint64
	lens := check("instructions_equal_trace_length", true, "")
	plaus := check("ipc_within_width_and_cycles_positive", true, "")
	for _, cfg := range []sim.Config{sim.PublicA53(), sim.PublicA72()} {
		for _, tr := range p.all() {
			res, err := cfg.RunDecoded(tr.Decoded(cfg.DecoderDepBug))
			if err != nil {
				return err
			}
			if res.Instructions != uint64(tr.Len()) {
				lens = check("instructions_equal_trace_length", false,
					"%s on %s: %d instructions, trace has %d", cfg.Name, tr.Name, res.Instructions, tr.Len())
			}
			if vs := plausibility.CheckResult(cfg, res); len(vs) > 0 || res.Cycles == 0 {
				plaus = check("ipc_within_width_and_cycles_positive", false, "%s on %s: %v", cfg.Name, tr.Name, vs)
			}
			sum.Instructions += res.Instructions
			sum.Cycles += res.Cycles
			sum.StallFrontEnd += res.StallFrontEnd
			sum.StallData += res.StallData
			sum.StallStruct += res.StallStruct
			sum.Mem.L1I.Misses += res.Mem.L1I.Misses
			sum.Mem.L1D.Misses += res.Mem.L1D.Misses
			sum.Mem.L2.Misses += res.Mem.L2.Misses
			sum.Mem.ITLBMiss += res.Mem.ITLBMiss
			sum.Mem.DTLBMiss += res.Mem.DTLBMiss
			sum.Mem.DRAM.Reads += res.Mem.DRAM.Reads
			sum.Mem.DRAM.Writes += res.Mem.DRAM.Writes
			sum.Branch.DirectionMiss += res.Branch.Mispredicts()
			for _, lvl := range []cache.Stats{res.Mem.L1I, res.Mem.L1D, res.Mem.L2} {
				pfIssued += lvl.PrefetchIssued
				pfUseful += lvl.PrefetchUseful
			}
		}
	}
	p.checks = append(p.checks, lens, plaus)
	p.m.set("core.instructions", float64(sum.Instructions))
	p.m.set("core.cycles", float64(sum.Cycles))
	p.m.set("core.cpi", sum.CPI())
	p.m.set("core.stall_frontend_cycles", float64(sum.StallFrontEnd))
	p.m.set("core.stall_data_cycles", float64(sum.StallData))
	p.m.set("core.stall_struct_cycles", float64(sum.StallStruct))
	p.m.set("cache.l1i_misses", float64(sum.Mem.L1I.Misses))
	p.m.set("cache.l1d_misses", float64(sum.Mem.L1D.Misses))
	p.m.set("cache.l2_misses", float64(sum.Mem.L2.Misses))
	p.m.set("cache.itlb_misses", float64(sum.Mem.ITLBMiss))
	p.m.set("cache.dtlb_misses", float64(sum.Mem.DTLBMiss))
	p.m.set("prefetch.issued", float64(pfIssued))
	p.m.set("prefetch.useful", float64(pfUseful))
	acc := 0.0
	if pfIssued > 0 {
		acc = float64(pfUseful) / float64(pfIssued)
	}
	p.m.set("prefetch.accuracy", acc)
	p.m.set("branch.mispredicts", float64(sum.Branch.Mispredicts()))
	p.m.set("branch.mpki", sum.Branch.MPKI(sum.Instructions))
	p.m.set("dram.reads", float64(sum.Mem.DRAM.Reads))
	p.m.set("dram.writes", float64(sum.Mem.DRAM.Writes))
	return nil
}

// kernels times the component models alone, fed with the decoded columns
// of the workload's traces under the A72 preset. Each pass starts from
// freshly built (empty) structures, built outside the clock.
func (p *prober) kernels() error {
	sp := p.span("component.kernels")
	defer sp.End()
	a72 := sim.PublicA72()
	dur := p.env.size.ProbeDur

	type memOp struct {
		pc, addr uint64
		store    bool
	}
	type brOp struct {
		cls        isa.Class
		op         isa.Op
		pc, target uint64
		taken      bool
	}
	var pcs []uint64
	var mems []memOp
	var brs []brOp
	for _, tr := range p.all() {
		d := tr.Decoded(true)
		for i := 0; i < d.Len(); i++ {
			in := d.Inst(i)
			pcs = append(pcs, d.PC[i])
			switch {
			case in.Cls.IsMem():
				mems = append(mems, memOp{d.PC[i], d.MemAddr[i], in.Cls == isa.ClassStore})
			case in.Cls.IsBranch():
				brs = append(brs, brOp{in.Cls, in.Op, d.PC[i], d.Target[i], d.Taken(i)})
			}
		}
	}

	var h *cache.Hierarchy
	var buildErr error
	newHierarchy := func() { h, buildErr = cache.NewHierarchy(a72.Mem) }
	ns := timeOps(dur, newHierarchy, func() int {
		now := uint64(0)
		for _, op := range mems {
			var r cache.AccessResult
			if op.store {
				r = h.Store(now, op.pc, op.addr)
			} else {
				r = h.Load(now, op.pc, op.addr)
			}
			now += 1 + r.Latency/4
		}
		return len(mems)
	})
	if buildErr != nil {
		return buildErr
	}
	p.m.set("cache.access_ns", ns)
	ns = timeOps(dur, newHierarchy, func() int {
		now := uint64(0)
		for _, pc := range pcs {
			now += 1 + h.Fetch(now, pc).Latency/4
		}
		return len(pcs)
	})
	p.m.set("cache.fetch_ns", ns)

	// The prefetchers see the data stream at line granularity; an access
	// counts as a miss when it leaves the previous access's line.
	observe := func(kind prefetch.Kind) (ns, allocsPerOp float64, err error) {
		cfg := prefetch.DefaultConfig()
		cfg.Kind, cfg.Degree, cfg.Distance = kind, 2, 4
		var pf prefetch.Prefetcher
		var sink int
		build := func() { pf, err = prefetch.New(cfg, 64) }
		pass := func() int {
			if err != nil {
				return 0
			}
			last := ^uint64(0)
			for _, op := range mems {
				line := op.addr &^ 63
				sink += len(pf.Observe(op.pc, line, line != last))
				last = line
			}
			return len(mems)
		}
		ns = timeOps(dur, build, pass)
		var before, after runtime.MemStats
		build()
		runtime.ReadMemStats(&before)
		n := pass()
		runtime.ReadMemStats(&after)
		if n > 0 {
			allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n)
		}
		return ns, allocsPerOp, err
	}
	ghbNS, ghbAllocs, err := observe(prefetch.KindGHB)
	if err != nil {
		return err
	}
	strideNS, _, err := observe(prefetch.KindStride)
	if err != nil {
		return err
	}
	p.m.set("prefetch.ghb_observe_ns", ghbNS)
	p.m.set("prefetch.stride_observe_ns", strideNS)
	p.m.set("prefetch.ghb_allocs_per_op", ghbAllocs)

	var bu *branch.Unit
	ns = timeOps(dur, func() { bu, buildErr = branch.NewUnit(a72.Branch) }, func() int {
		for _, op := range brs {
			bu.AccessOutcome(op.cls, op.op, op.pc, op.target, op.taken)
		}
		return len(brs)
	})
	if buildErr != nil {
		return buildErr
	}
	p.m.set("branch.access_ns", ns)

	var mem *dram.DRAM
	ns = timeOps(dur, func() { mem, buildErr = dram.New(a72.Mem.DRAM) }, func() int {
		now := uint64(0)
		for i := range mems {
			now += mem.Access(now, mems[i].store) / 8
		}
		return len(mems)
	})
	if buildErr != nil {
		return buildErr
	}
	p.m.set("dram.access_ns", ns)
	return nil
}

// storage times the simulation cache: keys, the three ways a lookup is
// answered, and the snapshot the workload's own results make.
func (p *prober) storage(rc *simcache.Cache) error {
	sp := p.span("simcache.probes")
	defer sp.End()
	dur := p.env.size.ProbeDur
	cfgs := sampleConfigs(sim.PublicA53(), 4, rand.New(rand.NewSource(p.env.seed+1)))
	type pair struct {
		cfg sim.Config
		tr  *trace.Trace
	}
	var pairs []pair
	for _, cfg := range cfgs {
		for _, tr := range p.suite {
			pairs = append(pairs, pair{cfg, tr})
		}
	}

	var sink int
	ns := timeOps(dur, nil, func() int {
		for _, pr := range pairs {
			sink += len(simcache.Key(pr.cfg, pr.tr))
		}
		return len(pairs)
	})
	p.m.set("simcache.key_ns", ns)

	// Bare replay, then the same pairs through a cold cache (all misses),
	// then again (all memory hits).
	var failed error
	var c *simcache.Cache
	bare := timeOps(dur, nil, func() int {
		for _, pr := range pairs {
			if _, err := pr.cfg.RunDecoded(pr.tr.Decoded(pr.cfg.DecoderDepBug)); err != nil {
				failed = err
			}
		}
		return len(pairs)
	})
	runAll := func() int {
		for _, pr := range pairs {
			if _, err := c.Run(pr.cfg, pr.tr); err != nil {
				failed = err
			}
		}
		return len(pairs)
	}
	cold := timeOps(dur, func() { c = simcache.New() }, runAll)
	p.m.set("simcache.miss_overhead_ns", cold-bare)
	c = simcache.New()
	hit := timeOps(dur, nil, runAll)
	if failed != nil {
		return failed
	}
	p.m.set("simcache.hit_ns", hit)

	// The workload's own results as a snapshot.
	path := filepath.Join(p.env.workDir, "probe.snap")
	t0 := time.Now()
	if err := rc.SaveFile(path); err != nil {
		return err
	}
	p.m.set("simcache.save_s", time.Since(t0).Seconds())
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	keys := rc.Keys()
	perEntry := 0.0
	if len(keys) > 0 {
		perEntry = float64(fi.Size()) / float64(len(keys))
	}
	p.m.set("simcache.snapshot_bytes_per_entry", perEntry)
	mapped := simcache.New()
	t0 = time.Now()
	if _, _, err := mapped.LoadChecked(path); err != nil {
		return err
	}
	p.m.set("simcache.open_s", time.Since(t0).Seconds())
	t0 = time.Now()
	found := 0
	for _, k := range keys {
		if _, ok := mapped.Peek(k); ok {
			found++
		}
	}
	touch := time.Since(t0)
	p.checks = append(p.checks, check("snapshot_round_trip", found == len(keys),
		"%d of %d entries readable through the mapped snapshot", found, len(keys)))
	if len(keys) > 0 {
		p.m.set("simcache.mapped_hit_ns", float64(touch.Nanoseconds())/float64(len(keys)))
	} else {
		p.m.set("simcache.mapped_hit_ns", 0)
	}
	if err := mapped.Close(); err != nil {
		return err
	}

	memo := tracememo.New(0, 0)
	get := func() int {
		for _, tr := range p.suite {
			tr := tr
			memo.Get(tr.Name, func() (*trace.Trace, error) { return tr, nil })
		}
		return len(p.suite)
	}
	ns = timeOps(dur, nil, get)
	p.m.set("tracememo.get_ns", ns)
	return nil
}

// tuning runs one traced tuning race on the workload's own suite (unless
// the traced iteration already was one) and the perturbation search around
// its optimum.
func (p *prober) tuning(tuned *tuneOutcome) error {
	sp := p.span("validate.measure_suite")
	t0 := time.Now()
	suite, err := validate.MeasureSuiteParallel(p.plat.A53, ubench.Options{Scale: p.scale}, p.env.par)
	if err != nil {
		return err
	}
	p.m.set("validate.measure_suite_s", time.Since(t0).Seconds())
	sp.End()
	heldout, err := heldoutWorkloads(p.plat.A53, p.events, p.env.seed)
	if err != nil {
		return err
	}
	if tuned == nil {
		tuned, err = tuneOnce(suite, heldout, p.env.size.Budget1, p.env.seed, simcache.New(), p.env.par, p.rec, p.root)
		if err != nil {
			return err
		}
	}
	p.m.set("heldout_cpi_err_pct", tuned.HeldoutErrPct)
	p.m.set("validate.tuned_suite_err_pct", tuned.SuiteErrPct)
	p.m.set("validate.tune_s", tuned.TuneS)
	p.m.set("validate.errors_s", tuned.ErrorsS)
	p.m.set("irace.evaluations", float64(tuned.Evaluations))
	p.m.set("irace.iterations", float64(tuned.Iterations))
	p.m.set("irace.race_steps", float64(tuned.RaceSteps))
	p.m.set("irace.eval_s", tuned.EvalS)
	p.m.set("irace.self_s", tuned.RunS-tuned.EvalS)
	p.m.set("irace.batch_width_mean", tuned.BatchWidth)
	p.m.set("irace.eval_concurrency_mean", tuned.Concurrency)

	rng := rand.New(rand.NewSource(p.env.seed))
	costs := make([][]float64, 20)
	for i := range costs {
		costs[i] = make([]float64, 40)
		for j := range costs[i] {
			costs[i][j] = rng.Float64()
		}
	}
	var ferr error
	ns := timeOps(p.env.size.ProbeDur, nil, func() int {
		if _, err := stats.Friedman(costs, 0.05); err != nil {
			ferr = err
		}
		return 1
	})
	if ferr != nil {
		return ferr
	}
	p.m.set("stats.friedman_us", ns/1e3)

	ws := make([]perturb.Workload, p.env.size.ProbeSpec)
	for i, m := range heldout[:p.env.size.ProbeSpec] {
		ws[i] = perturb.Workload{Name: m.Bench.Name, Trace: m.Trace, Counters: m.Counters}
	}
	pc := simcache.New()
	sp = p.span("perturb.search")
	w := startWatch()
	if _, err := perturb.WorstNearOptimum(tuned.Tuned, ws, perturb.Options{Seed: p.env.seed, Cache: pc, Parallelism: p.env.par}); err != nil {
		return err
	}
	c := w.stop()
	sp.End()
	p.m.set("perturb.search_s", c.Wall)
	p.m.set("perturb.sims", float64(pc.Stats().Misses))
	p.m.set("perturb.core_util", c.CPU/(c.Wall*float64(p.env.par)))

	const items = 2000
	slots := make([]int, items) // one per item: the items share nothing
	ns = timeOps(p.env.size.ProbeDur, nil, func() int {
		par.ForEach(items, p.env.par, func(i int) error { slots[i]++; return nil })
		return items
	})
	p.m.set("par.foreach_ns", ns)
	return nil
}

// serving measures the job server's round trips on one in-process worker
// loaded with the workload's results: snapshot import/export and a warm
// `run` job submitted repeatedly.
func (p *prober) serving(rc *simcache.Cache) error {
	sp := p.span("engine.serve")
	defer sp.End()
	w, err := startWorker(engine.ServerOptions{Workers: 1})
	if err != nil {
		return err
	}
	defer w.stop()
	ctx := context.Background()
	cl := engine.NewClient(w.url)
	snap, err := rc.Marshal()
	if err != nil {
		return err
	}
	t0 := time.Now()
	rep, err := cl.ImportSnapshot(ctx, snap)
	if err != nil {
		return err
	}
	p.m.set("engine.snapshot_import_ms", float64(time.Since(t0).Microseconds())/1e3)
	t0 = time.Now()
	back, err := cl.ExportSnapshot(ctx, false)
	if err != nil {
		return err
	}
	p.m.set("engine.snapshot_export_ms", float64(time.Since(t0).Microseconds())/1e3)
	p.checks = append(p.checks, check("snapshot_import_export", rep.Rejected == 0 && len(back) == len(snap),
		"%d rejected, exported %d bytes of %d imported", rep.Rejected, len(back), len(snap)))

	job := engine.Job{Kind: engine.KindRun, Run: &engine.RunJob{
		Preset: "public-a53", Ubench: "MD,MC,CCa,ED1", Scale: p.scale,
	}}
	jobs := 1 + p.env.size.ProbeServed // the first fills the trace memo and the cache, untimed
	var submit, watch, queue, run []float64
	failed := 0
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		id, err := cl.Submit(ctx, job)
		if err != nil {
			return err
		}
		t1 := time.Now()
		st, err := cl.Watch(ctx, id, 0)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if st.Status != "done" {
			failed++
		}
		if i == 0 {
			continue
		}
		submit = append(submit, float64(t1.Sub(t0).Microseconds())/1e3)
		watch = append(watch, float64(t2.Sub(t1).Microseconds())/1e3)
		queue = append(queue, float64(st.Started.Sub(st.Submitted).Microseconds())/1e3)
		run = append(run, float64(st.Finished.Sub(st.Started).Microseconds())/1e3)
	}
	p.checks = append(p.checks, check("serve_jobs_done", failed == 0, "%d of %d run jobs did not finish done", failed, jobs))
	p.m.set("engine.submit_ms_p50", median(submit))
	p.m.set("engine.watch_ms_p50", median(watch))
	p.m.set("engine.queue_ms_p50", median(queue))
	p.m.set("engine.run_ms_p50", median(run))
	h, err := cl.Health(ctx)
	if err != nil {
		return err
	}
	ratio := 0.0
	if n := h.Traces.Hits + h.Traces.Misses; n > 0 {
		ratio = float64(h.Traces.Hits) / float64(n)
	}
	p.m.set("tracememo.hit_ratio", ratio)
	return nil
}

// unitTimings parses the `timing: <unit> <duration>` lines an experiments
// job writes to its stderr stream.
func unitTimings(log string) (map[string]float64, float64) {
	out := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(log, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "timing:" {
			continue
		}
		if d, err := time.ParseDuration(f[2]); err == nil {
			out[f[1]] = d.Seconds()
			total += d.Seconds()
		}
	}
	return out, total
}

// runProbes fills every per-layer metric from the untraced and traced
// iterations and the probes above, and returns the probes' self-checks.
func runProbes(name string, env *runEnv, inst instance, untraced, traced *iterResult,
	rec *telemetry.Recorder, m *metricSet) ([]checkResult, error) {
	root := rec.StartSpan("probes", telemetry.SpanContext{}, map[string]string{"workload": name})
	defer root.End()
	plat, err := hw.Firefly()
	if err != nil {
		return nil, err
	}
	p := &prober{env: env, rec: rec, root: root.Context(), m: m, plat: plat,
		scale: env.size.Scale, events: env.size.Events}
	if name == "tune_inorder" {
		p.scale, p.events = env.size.TuneScale, env.size.TuneEvents
	}

	// One untraced iteration: what the cache did, how busy the cores were.
	st := untraced.Stats
	m.set("simcache.hits", float64(st.Hits))
	m.set("simcache.misses", float64(st.Misses))
	m.set("simcache.shared", float64(st.Shared))
	m.set("simcache.hit_ratio", st.HitRate())
	m.set("simcache.entries", float64(st.Entries))
	m.set("par.core_util", untraced.CPU/(untraced.Wall*float64(env.par)))

	// Replay share: the cold iteration against itself on the warm cache.
	replayed := 0.0
	if untraced.Cache != nil {
		for _, k := range untraced.Cache.Keys() {
			if res, ok := untraced.Cache.Peek(k); ok {
				replayed += float64(res.Instructions)
			}
		}
	}
	m.set("sim_minst_per_s", replayed/untraced.Wall/1e6)
	warmCPU, replays, err := inst.rerunWarm(untraced)
	if err != nil {
		return nil, err
	}
	if replays {
		m.set("sim.replay_cpu_s", untraced.CPU-warmCPU)
		m.set("sim.replay_share", (untraced.CPU-warmCPU)/untraced.CPU)
	} else {
		m.set("sim.replay_cpu_s", 0)
		m.set("sim.replay_share", 0)
	}

	// The traced iteration's own decomposition.
	m.set("scenario.expand_s", spanSeconds(rec, "scenario.expand"))
	m.set("scenario.render_s", spanSeconds(rec, "scenario.render"))
	unitS := map[string]float64{}
	for _, sp := range rec.Spans() {
		if sp.Name == "scenario.unit" {
			unitS[sp.Attrs["unit"]] += time.Duration(sp.DurationNS).Seconds()
		}
	}
	for _, id := range unitIDs {
		m.set("scenario.unit_s."+id, unitS[id])
	}
	if _, unitsTotal := unitTimings(untraced.Log); unitsTotal > 0 {
		m.set("engine.overhead_s", untraced.Raw-unitsTotal)
	} else {
		m.set("engine.overhead_s", 0)
	}
	clusterMetrics(traced, m)

	if err := p.generate(); err != nil {
		return nil, err
	}
	if err := p.replay(); err != nil {
		return nil, err
	}
	if err := p.simulated(); err != nil {
		return nil, err
	}
	if err := p.kernels(); err != nil {
		return nil, err
	}
	rc, err := inst.resultCache(untraced)
	if err != nil {
		return nil, err
	}
	if err := p.storage(rc); err != nil {
		return nil, err
	}
	if err := p.tuning(traced.Tune); err != nil {
		return nil, err
	}
	if err := p.serving(rc); err != nil {
		return nil, err
	}
	return p.checks, nil
}

// clusterMetrics splits the traced sweep by its Report and by the workers'
// job run times. Every cluster.* metric is 0 on the workloads that run no
// sweep.
func clusterMetrics(traced *iterResult, m *metricSet) {
	rep := traced.Sweep
	if rep == nil {
		rep = &cluster.Report{}
	}
	unit := telemetry.Percentiles(rep.UnitDurations, 0.5, 0.9)
	m.set("cluster.unit_ms_p50", float64(unit[0].Microseconds())/1e3)
	m.set("cluster.unit_ms_p90", float64(unit[1].Microseconds())/1e3)
	m.set("cluster.reassigned", float64(rep.Reassigned))
	m.set("cluster.merged_entries", float64(rep.MergedEntries))
	var busiest, total float64
	for _, busy := range traced.WorkerBusy {
		total += busy
		busiest = max(busiest, busy)
	}
	overhead, imbalance := 0.0, 0.0
	if total > 0 {
		overhead = traced.Raw - busiest
		imbalance = busiest / (total / float64(len(traced.WorkerBusy)))
	}
	m.set("cluster.overhead_s", overhead)
	m.set("cluster.worker_imbalance", imbalance)
}

// reportMissing names the catalogue's per-layer metrics the set lacks.
func reportMissing(m *metricSet) error {
	var missing []string
	for _, d := range perLayer {
		if d.Name == "fail_ratio" {
			continue // set by the caller once every check is counted
		}
		if _, ok := m.vals[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 || len(m.errs) > 0 {
		return fmt.Errorf("per-layer metrics: missing %v, errors %v", missing, m.errs)
	}
	return nil
}
