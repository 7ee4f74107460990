package main

import (
	"encoding/json"
	"fmt"
)

// This file is the single source of truth for what the benchmark measures:
// the workloads, the end-to-end metrics with their regression bounds and the
// per-layer metrics. BENCHMARK.json at the repository root is generated from
// it (`-manifest`), the human-readable report reads units, directions and
// bounds from it, and bench_test.go checks that the two agree and that every
// metric named here is emitted exactly once.

// metricDef describes one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is rejected; it is
// zero (unused) for per-layer metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Exact marks a count that must repeat exactly for a fixed seed
	// (simulated statistics, evaluation counts): two same-seed passes are
	// compared bit for bit on these.
	Exact bool
}

// workloadDef is one workload: what BENCHMARK.json says of it, how much of
// it a run does and how it is built.
type workloadDef struct {
	Name string
	Why  string
	// Iterations is how many timed iterations fill runSeconds on the
	// reference host.
	Iterations int
	// Setups is how many times a run sets the workload up from nothing; the
	// median is setup_s. The tuning race's set-up is cheap enough for four;
	// the others contain a whole cold experiments run.
	Setups int
	build  func(*runEnv) (instance, error)
}

// runSeconds is how long one run measures (the timed section). With its
// set-ups and the untimed warm-up iteration a run lasts 20 to 30 s on the
// 2-core reference host, which leaves the driver's 92 runs a third of
// their time budget for the host's slow spells.
const runSeconds = 12

var workloadDefs = []workloadDef{
	{Name: "paper_cold", Iterations: 3, Setups: 2, build: func(env *runEnv) (instance, error) { return newPaper(env, false) },
		Why: "cold `experiments -scenario all` on an empty simulation cache: the headline user journey, replay-bound (perturbation search + irace rounds), so every replay-side optimisation must show here"},
	{Name: "tune_inorder", Iterations: 8, Setups: 4, build: newTune,
		Why: "one cold irace tuning race of the in-order model over the 40 micro-benchmarks, scored on held-out workloads: many configs x one small trace, the lane-batching and tuner path"},
	{Name: "paper_warm", Iterations: 10, Setups: 2, build: func(env *runEnv) (instance, error) { return newPaper(env, true) },
		Why: "the paper_cold job answered from a binary cache snapshot: replay is bypassed, so time goes to snapshot open/save, cache keys and hits, trace generation, tuner self time and rendering"},
	{Name: "sweep_2w", Iterations: 4, Setups: 2, build: newSweep,
		Why: "the same selection dispatched across 2 in-process serve workers over loopback HTTP with a pre-seeded federated cache: transport, scheduling and snapshot exchange with replay held near zero"},
}

// End-to-end metrics: what a user of the system sees. Every workload
// reports every one of them (none is ever zero). Host times are in
// reference-host seconds (see stopwatch and hostSpeed). The time bounds are the
// largest the contract allows because the shared host's speed, not the
// program, sets their spread (README, "How the bounds were obtained").
var endToEnd = []metricDef{
	// median host wall time of one timed iteration
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	// median process CPU time (user+sys, getrusage) of one timed iteration
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	// median over iterations of (config, trace) evaluations answered
	// (simcache hits+misses+shared+remote) per second of wall_s
	{Name: "sims_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// peak resident set (VmHWM) at the end of the untraced run: set-ups,
	// warm-ups and the planned timed iterations, a fixed amount of work
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	// median host wall time of one complete set-up: everything before the
	// first timed iteration (inputs, board measurement, cold snapshot run,
	// servers, the untimed warm-up iteration)
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// unitIDs are the nine paper units whose wall time is split out as
// scenario.unit_s.<id>.
var unitIDs = []string{"table1", "table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "staged"}

// perLayer lists the metrics of single layers (layer = package name),
// reported by the traced run (`-trace 1`). Host-side values are host time;
// everything marked Exact is simulated or counted state that repeats
// exactly for a fixed seed.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	exact := func(m metricDef) metricDef { m.Exact = true; return m }

	defs := []metricDef{
		// Demoted from the end-to-end list: not defined on every workload
		// (no replay on the warm ones, no tuning race on the sweep) or
		// seed-dependent by construction.
		higher("sim_minst_per_s", "Minst/s"),     // simulated instructions actually replayed per host wall second in one cold iteration (0 on the warm workloads)
		exact(lower("heldout_cpi_err_pct", "%")), // mean abs CPI error of the tuned in-order model vs the reference board on workloads held back from tuning
		exact(lower("fail_ratio", "ratio")),      // failed / attempted operations: iterations, jobs, sweep units and every self-check

		// ubench (asm/emu/isa beneath)
		lower("ubench.gen_s", "s"),                  // Bench.Trace over the 40-benchmark suite, sequential
		exact(higher("ubench.insts", "count")),      // dynamic instructions recorded for the suite
		higher("ubench.gen_minst_per_s", "Minst/s"), // suite instructions emulated and recorded per host second
		// workload
		lower("workload.gen_s", "s"),             // workload.Generate over the 11 Table II profiles, sequential
		exact(higher("workload.insts", "count")), // dynamic instructions synthesized for the 11 profiles
		// trace
		lower("trace.decode_s", "s"),                  // first Trace.Decoded call over every trace of the workload
		higher("trace.decode_minst_per_s", "Minst/s"), // instructions decoded to columnar form per host second
		lower("trace.digest_s", "s"),                  // first Trace.Digest call over every trace of the workload
		// hw
		lower("hw.measure_s", "s"), // Board.Measure over the suite on the reference A53 board, sequential

		// sim (replay kernel; single-threaded)
		higher("sim.inorder_ubench_minst_per_s", "Minst/s"), // RunDecoded, in-order configs x suite traces
		higher("sim.inorder_spec_minst_per_s", "Minst/s"),   // RunDecoded, in-order configs x Table II traces
		higher("sim.ooo_ubench_minst_per_s", "Minst/s"),     // RunDecoded, out-of-order configs x suite traces
		higher("sim.ooo_spec_minst_per_s", "Minst/s"),       // RunDecoded, out-of-order configs x Table II traces
		higher("sim.batch8_speedup", "x"),                   // 8 x RunDecoded time / one RunBatch of the same 8 in-order configs, suite traces
		lower("sim.allocs_per_run", "count"),                // heap allocations per RunDecoded call (runtime.MemStats delta)
		lower("sim.alloc_kb_per_run", "KB"),                 // heap bytes allocated per RunDecoded call
		lower("sim.behaviors_s", "s"),                       // first sim.Behaviors call (behavior-table compile) over every decoded trace
		lower("sim.replay_cpu_s", "s"),                      // CPU of the cold iteration minus the same iteration re-run on the now-warm cache (0 on warm workloads)
		higher("sim.replay_share", "ratio"),                 // sim.replay_cpu_s / CPU of the cold iteration

		// core / cache / prefetch / branch / dram: simulated statistics,
		// summed over PublicA53 + PublicA72 x the workload's traces, caches
		// starting empty.
		exact(higher("core.instructions", "count")),         // simulated instructions
		exact(lower("core.cycles", "count")),                // simulated cycles
		exact(lower("core.cpi", "ratio")),                   // simulated cycles / instructions
		exact(lower("core.stall_frontend_cycles", "count")), // cycles attributed to branch redirects and I-cache
		exact(lower("core.stall_data_cycles", "count")),     // cycles attributed to waiting on operands
		exact(lower("core.stall_struct_cycles", "count")),   // cycles attributed to functional-unit and queue contention
		exact(lower("cache.l1i_misses", "count")),           // simulated L1I misses
		exact(lower("cache.l1d_misses", "count")),           // simulated L1D misses
		exact(lower("cache.l2_misses", "count")),            // simulated L2 misses
		exact(lower("cache.itlb_misses", "count")),          // simulated I-TLB misses
		exact(lower("cache.dtlb_misses", "count")),          // simulated D-TLB misses
		exact(lower("prefetch.issued", "count")),            // prefetches issued (L1I+L1D+L2)
		exact(higher("prefetch.useful", "count")),           // prefetched lines later hit by demand
		exact(higher("prefetch.accuracy", "ratio")),         // prefetch.useful / prefetch.issued
		exact(lower("branch.mispredicts", "count")),         // simulated pipeline-flush mispredictions
		exact(lower("branch.mpki", "ratio")),                // mispredictions per kilo-instruction
		exact(lower("dram.reads", "count")),                 // simulated DRAM line reads
		exact(lower("dram.writes", "count")),                // simulated DRAM line writes

		// cache / prefetch / branch / dram: host-time kernels under the A72
		// preset, fed with the workload's decoded PC/MemAddr/branch columns.
		lower("cache.access_ns", "ns"),               // Hierarchy.Load/Store per data access, D-TLB included
		lower("cache.fetch_ns", "ns"),                // Hierarchy.Fetch per instruction
		lower("prefetch.ghb_observe_ns", "ns"),       // GHB Prefetcher.Observe per data access
		lower("prefetch.stride_observe_ns", "ns"),    // stride Prefetcher.Observe per data access
		lower("prefetch.ghb_allocs_per_op", "count"), // heap allocations per GHB Observe call
		lower("branch.access_ns", "ns"),              // Unit.AccessOutcome per branch
		lower("dram.access_ns", "ns"),                // DRAM.Access per request

		// simcache
		exact(higher("simcache.hits", "count")),         // lookups of one iteration answered from memory or the snapshot
		exact(lower("simcache.misses", "count")),        // lookups of one iteration that simulated
		lower("simcache.shared", "count"),               // lookups of one iteration that waited on an identical in-flight run (scheduling-dependent)
		higher("simcache.hit_ratio", "ratio"),           // (hits+shared+remote) / lookups of one iteration
		exact(higher("simcache.entries", "count")),      // distinct results held after one iteration
		lower("simcache.key_ns", "ns"),                  // simcache.Key per call
		lower("simcache.hit_ns", "ns"),                  // memory-tier Cache.Run per hit
		lower("simcache.mapped_hit_ns", "ns"),           // first touch of a record through the mmap snapshot tier
		lower("simcache.miss_overhead_ns", "ns"),        // cold Cache.Run minus bare RunDecoded, per miss
		lower("simcache.save_s", "s"),                   // Cache.SaveFile of the workload's cache
		lower("simcache.open_s", "s"),                   // Cache.LoadChecked of that snapshot (index parse, mmap attach)
		lower("simcache.snapshot_bytes_per_entry", "B"), // snapshot file size / entries

		// tracememo
		higher("tracememo.hit_ratio", "ratio"), // serve trace-memo hits / lookups over repeated identical run jobs
		lower("tracememo.get_ns", "ns"),        // Memo.Get per hit

		// irace / stats
		exact(higher("irace.evaluations", "count")),    // evaluations charged by one tuning race
		exact(higher("irace.iterations", "count")),     // sample-race-update rounds of that race
		exact(higher("irace.race_steps", "count")),     // instance steps raced (length of the race trace)
		lower("irace.self_s", "s"),                     // Tuner.Run wall minus the time covered by evaluator calls
		lower("irace.eval_s", "s"),                     // wall time of Tuner.Run covered by at least one CostBatch call
		higher("irace.batch_width_mean", "count"),      // mean configurations per CostBatch call
		higher("irace.eval_concurrency_mean", "count"), // mean CostBatch calls in flight while any is
		lower("stats.friedman_us", "us"),               // stats.Friedman on a 20 x 40 cost matrix

		// validate / perturb
		lower("validate.measure_suite_s", "s"),            // MeasureSuiteParallel: generate + measure the suite on the board
		lower("validate.tune_s", "s"),                     // one tuning race (irace + final error pass)
		lower("validate.errors_s", "s"),                   // ErrorsWith of the tuned model over the suite (cache warm)
		exact(lower("validate.tuned_suite_err_pct", "%")), // mean abs CPI error of the tuned model on the suite it was tuned on
		lower("perturb.search_s", "s"),                    // WorstNearOptimum around the tuned in-order model on the Table II workloads
		exact(lower("perturb.sims", "count")),             // simulations that search ran
		higher("perturb.core_util", "ratio"),              // CPU / (wall x GOMAXPROCS) of that search

		// par
		higher("par.core_util", "ratio"), // CPU / (wall x GOMAXPROCS) of one untraced iteration
		lower("par.foreach_ns", "ns"),    // par.ForEach dispatch overhead per item

		// scenario / expt
		lower("scenario.expand_s", "s"), // Registry + Select + Expand
	}
	for _, id := range unitIDs {
		defs = append(defs, lower("scenario.unit_s."+id, "s")) // wall time of that unit in the traced iteration
	}
	defs = append(defs,
		lower("scenario.render_s", "s"), // RenderAll of the unit results

		// engine
		lower("engine.overhead_s", "s"),          // Execute wall minus the sum of its units' own wall times
		lower("engine.queue_ms_p50", "ms"),       // submitted-to-started of warm run jobs on a serve worker (JobStatus)
		lower("engine.run_ms_p50", "ms"),         // started-to-finished of those jobs
		lower("engine.submit_ms_p50", "ms"),      // Client.Submit round trip
		lower("engine.watch_ms_p50", "ms"),       // Client.Watch until the terminal event
		lower("engine.snapshot_export_ms", "ms"), // Client.ExportSnapshot of the workload's cache
		lower("engine.snapshot_import_ms", "ms"), // Client.ImportSnapshot of the workload's cache

		// cluster (sweep_2w only; 0 elsewhere)
		lower("cluster.unit_ms_p50", "ms"),               // dispatch-to-completion of sweep units, median
		lower("cluster.unit_ms_p90", "ms"),               // dispatch-to-completion of sweep units, 90th percentile
		exact(lower("cluster.reassigned", "count")),      // unit dispatches that failed and were retried
		exact(higher("cluster.merged_entries", "count")), // federated snapshot size after merging worker deltas
		lower("cluster.overhead_s", "s"),                 // sweep wall minus the busiest worker's summed job run time
		lower("cluster.worker_imbalance", "ratio"),       // busiest worker's summed run time / mean over workers

		// benchmark
		lower("bench.trace_overhead_pct", "%"), // wall time of the traced iteration over the median untraced one, less one (one sample: host noise included)
	)
	return defs
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		if len(w.Why) > 200 {
			return nil, fmt.Errorf("workload %s: why is %d characters (max 200)", w.Name, len(w.Why))
		}
		out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	if n := len(out.PerLayer); n > 128 {
		return nil, fmt.Errorf("%d per-layer metrics (max 128)", n)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
