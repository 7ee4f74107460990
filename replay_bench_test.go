package racesim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// Replay micro-benchmarks: the decode-once columnar path (Config.Run), on
// a single trace and on the multi-config sweep that dominates tuning and
// perturbation runs. MB/s numbers read as simulated instructions per
// microsecond (1 "byte" = 1 instruction). Results are recorded in
// BENCH_replay.json.
//
// Which mode a benchmark measures. A decoded trace remembers the memory
// hierarchy's decisions under the tape keys replayed most recently
// (core.TapeMemo, docs/performance.md), so a benchmark that repeats one
// configuration on one decode — or varies only latencies, as sweepConfigs
// does — measures taped replay after its second iteration: that is repeat
// mode, the perturbation search's shape, and every benchmark here without
// a suffix is one. The ...Unique variants rotate a field of the key so
// that no key comes back while the memo still holds it: every
// iteration simulates the hierarchy live, a tuning race's shape, and they
// are the ones that hold the live path to its cost before tapes existed.

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	p, ok := ubench.ByName("MIP")
	if !ok {
		b.Fatal("missing MIP")
	}
	tr, err := p.Trace(ubench.Options{Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// sweepConfigs builds distinct tuner-candidate-style variants of a preset,
// mirroring what one irace iteration replays over a single trace.
func sweepConfigs(base sim.Config) []sim.Config {
	lat := []int{2, 3, 4}
	l2 := []int{9, 12, 15, 18}
	out := make([]sim.Config, 0, len(lat)*len(l2))
	for _, l1 := range lat {
		for _, l := range l2 {
			cfg := base
			cfg.Mem.L1D.HitLatency = l1
			cfg.Mem.L2.HitLatency = l
			out = append(out, cfg)
		}
	}
	return out
}

// unique returns cfg with a memory field rotated by i, so that consecutive
// calls never share a tape key within the memo's horizon. The field (the
// GHB depth of the instruction cache's next-line prefetcher) is no
// tunable, so it stays in the key, and it is read by no model, so the
// simulation itself is the same work every time — on this tree and on one
// without tapes.
func unique(cfg sim.Config, i int) sim.Config {
	cfg.Mem.L1I.Prefetch.GHBEntries = 1 + i%4000
	return cfg
}

// benchReplay measures single-trace decoded replay throughput under cfg,
// repeated as is (repeat mode) or made unique per iteration.
func benchReplay(b *testing.B, cfg sim.Config, uniq bool) {
	tr := benchTrace(b)
	tr.Decoded(cfg.DecoderDepBug) // decode outside the measured region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		if uniq {
			c = unique(cfg, i)
		}
		if _, err := c.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len()))
}

// BenchmarkInOrderReplay measures single-trace decoded replay throughput
// on the in-order model, repeat mode.
func BenchmarkInOrderReplay(b *testing.B) { benchReplay(b, sim.PublicA53(), false) }

// BenchmarkInOrderReplayUnique is BenchmarkInOrderReplay with the memory
// hierarchy simulated live every iteration.
func BenchmarkInOrderReplayUnique(b *testing.B) { benchReplay(b, sim.PublicA53(), true) }

// BenchmarkOOOReplay measures single-trace decoded replay throughput on
// the out-of-order model, repeat mode.
func BenchmarkOOOReplay(b *testing.B) { benchReplay(b, sim.PublicA72(), false) }

// BenchmarkOOOReplayUnique is BenchmarkOOOReplay with the memory hierarchy
// simulated live every iteration.
func BenchmarkOOOReplayUnique(b *testing.B) { benchReplay(b, sim.PublicA72(), true) }

// BenchmarkSweepDecodeOnce replays one trace under 12 configurations
// through the decode-once path: the static decode is computed once and
// shared by every configuration.
func BenchmarkSweepDecodeOnce(b *testing.B) {
	tr := benchTrace(b)
	configs := sweepConfigs(sim.PublicA53())
	tr.Decoded(configs[0].DecoderDepBug)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			if _, err := cfg.Run(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(tr.Len() * len(configs)))
}

// BenchmarkReplayShortSpec is the micro-benchmark shaped like the cold
// end-to-end run: the 11 Table II workloads at 2000 events under both
// public models, one whole simulation per (model, trace) — model
// construction, replay and result — as the perturbation search and the
// tuner's races issue them by the thousand. At this trace length the
// per-simulation fixed cost (building or recycling the model) is a large
// share of a simulation, and the traces exercise the TLBs and the
// prefetchers, none of which the MIP benchmarks above see. It reports
// ns/sim and allocs/sim. Repeat mode: from the third iteration on every
// simulation replays its trace's tape, as most of a perturbation search
// does.
func BenchmarkReplayShortSpec(b *testing.B) { benchShortSpec(b, false) }

// BenchmarkReplayShortSpecUnique is BenchmarkReplayShortSpec with the
// memory hierarchy simulated live every time, as in a tuning race.
func BenchmarkReplayShortSpecUnique(b *testing.B) { benchShortSpec(b, true) }

func benchShortSpec(b *testing.B, uniq bool) {
	cfgs := []sim.Config{sim.PublicA53(), sim.PublicA72()}
	var trs []*trace.Trace
	for _, p := range workload.Profiles() {
		tr, err := workload.Generate(p, workload.Options{Events: 2000})
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			sim.Behaviors(tr.Decoded(cfg.DecoderDepBug)) // decode and compile outside the measured region
		}
		trs = append(trs, tr)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if uniq {
				cfg = unique(cfg, i)
			}
			for _, tr := range trs {
				if _, err := cfg.Run(tr); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	sims := float64(b.N * len(cfgs) * len(trs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sims, "ns/sim")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/sims, "allocs/sim")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/sims/1024, "KB/sim")
}

// BenchmarkReplayMix replays committed-by-seed lists of (configuration,
// trace) pairs shaped like the runs a user makes, and reports ns/event per
// core kind. The one list so far, race, is a tuning race's: raceConfigs
// configurations of each kind drawn uniformly from the kind's tuning space
// (seed 1), each replayed live on the 40 micro-benchmarks at scale 0.004,
// the race's own trace size. Every iteration rotates a key field (unique),
// so no replay ever takes the taped path, as in a race, where no
// configuration repeats. Recorded in BENCH_replay.json and gated in
// budgets/bench.json.
func BenchmarkReplayMix(b *testing.B) {
	b.Run("race", func(b *testing.B) {
		var trs []*trace.Trace
		for _, u := range ubench.Suite() {
			tr, err := u.Trace(ubench.Options{Scale: 0.004})
			if err != nil {
				b.Fatal(err)
			}
			trs = append(trs, tr)
		}
		rng := rand.New(rand.NewSource(1))
		kinds := []struct {
			name string
			cfgs []sim.Config
		}{{"inorder", raceConfigsOf(b, sim.PublicA53(), rng)}, {"ooo", raceConfigsOf(b, sim.PublicA72(), rng)}}
		var events [2]int64
		for k, kind := range kinds {
			for _, cfg := range kind.cfgs {
				for _, tr := range trs {
					sim.Behaviors(tr.Decoded(cfg.DecoderDepBug)) // decode and compile outside the measured region
					events[k] += int64(tr.Len())
				}
			}
		}
		var spent [2]time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, kind := range kinds {
				start := time.Now()
				for j, cfg := range kind.cfgs {
					c := unique(cfg, i*len(kind.cfgs)+j)
					for _, tr := range trs {
						if _, err := c.Run(tr); err != nil {
							b.Fatal(err)
						}
					}
				}
				spent[k] += time.Since(start)
			}
		}
		b.StopTimer()
		for k, kind := range kinds {
			b.ReportMetric(float64(spent[k].Nanoseconds())/float64(events[k]*int64(b.N)), kind.name+"_ns/event")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((events[0]+events[1])*int64(b.N)), "ns/event")
	})
}

// raceConfigs is the number of configurations per kind in BenchmarkReplayMix/race.
const raceConfigs = 4

// raceConfigsOf draws raceConfigs valid configurations from the tuning
// space of base's kind, as a race's first iteration samples them.
func raceConfigsOf(b *testing.B, base sim.Config, rng *rand.Rand) []sim.Config {
	sp, err := sim.Space(base.Kind, nil)
	if err != nil {
		b.Fatal(err)
	}
	var out []sim.Config
	for len(out) < raceConfigs {
		if cfg, err := sim.Apply(base, irace.SampleUniform(sp, rng)); err == nil {
			out = append(out, cfg)
		}
	}
	return out
}

// BenchmarkTraceFootprint measures what holding a trace costs and what
// decoding it costs: each iteration records the MIP trace afresh (untimed)
// and decodes both variants (timed), then reports the heap the trace
// retains with both decodes — bytes/event, after collecting everything
// else — and the decode time per event and variant, decode_ns/event.
// Recorded in BENCH_replay.json; budgets/bench.json caps bytes/event so
// that a second copy of the events cannot come back unnoticed.
func BenchmarkTraceFootprint(b *testing.B) {
	p, ok := ubench.ByName("MIP")
	if !ok {
		b.Fatal("missing MIP")
	}
	// Two collections: the first moves the trace builder's pooled chunks to
	// the pool's victim cache, the second frees them.
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var retained, events int64
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		before := heap()
		tr, err := p.Trace(ubench.Options{Scale: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, depBug := range []bool{false, true} {
			if d := tr.Decoded(depBug); d.Err != nil {
				b.Fatal(d.Err)
			}
		}
		b.StopTimer()
		retained += heap() - before
		events += int64(tr.Len())
		runtime.KeepAlive(tr)
	}
	b.ReportMetric(float64(retained)/float64(events), "bytes/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*events), "decode_ns/event")
}
