package racesim

import (
	"bytes"
	"testing"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/perturb"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/validate"
	"racesim/internal/workload"
)

// The benchmarks below regenerate each table/figure of the paper at a
// reduced scale, so `go test -bench .` both exercises and times the full
// reproduction pipeline. `racesim experiments` produces the full renderings.

func benchPlatform(b *testing.B) *hw.Platform {
	b.Helper()
	p, err := hw.Firefly()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTable1MicrobenchSuite generates and records the 40-benchmark
// suite (Table I).
func BenchmarkTable1MicrobenchSuite(b *testing.B) {
	opts := ubench.Options{Scale: 0.002}
	for i := 0; i < b.N; i++ {
		total := 0
		for _, bench := range ubench.Suite() {
			tr, err := bench.Trace(opts)
			if err != nil {
				b.Fatal(err)
			}
			total += tr.Len()
		}
		b.ReportMetric(float64(total), "instructions")
	}
}

// BenchmarkTable2SPECWorkloads synthesizes the 11 Table II workloads.
func BenchmarkTable2SPECWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range workload.Profiles() {
			if _, err := workload.Generate(p, workload.Options{Events: 30_000}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2RacingDynamics runs a small irace round and reports the
// number of elimination events (Figure 2).
func BenchmarkFig2RacingDynamics(b *testing.B) {
	p := benchPlatform(b)
	ms, err := validate.MeasureSuite(p.A53, ubench.Options{Scale: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := validate.Tune(sim.PublicA53(), ms, validate.TuneOptions{Budget: 600, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Irace.RaceTrace)), "race-events")
	}
}

// BenchmarkFig4MicrobenchTuning measures untuned-vs-tuned error on the
// micro-benchmark suite (Figure 4).
func BenchmarkFig4MicrobenchTuning(b *testing.B) {
	p := benchPlatform(b)
	ms, err := validate.MeasureSuite(p.A53, ubench.Options{Scale: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	before, err := validate.Errors(sim.PublicA53(), ms)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := validate.Tune(sim.PublicA53(), ms, validate.TuneOptions{Budget: 800, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		beforeMean, err := validate.MeanError(before)
		if err != nil {
			b.Fatal(err)
		}
		tunedMean, err := validate.MeanError(res.Errors)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(beforeMean*100, "untuned-err-pct")
		b.ReportMetric(tunedMean*100, "tuned-err-pct")
	}
}

func specWorkloads(b *testing.B, board *hw.Board, events int) []perturb.Workload {
	b.Helper()
	var ws []perturb.Workload
	for _, p := range workload.Profiles() {
		tr, err := workload.Generate(p, workload.Options{Events: events})
		if err != nil {
			b.Fatal(err)
		}
		c, err := board.Measure(tr)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, perturb.Workload{Name: p.Name, Trace: tr, Counters: c})
	}
	return ws
}

func specMeanError(b *testing.B, cfg sim.Config, ws []perturb.Workload) float64 {
	b.Helper()
	total := 0.0
	for _, w := range ws {
		res, err := cfg.Run(w.Trace)
		if err != nil {
			b.Fatal(err)
		}
		e := res.CPI() - w.Counters.CPI
		if e < 0 {
			e = -e
		}
		total += e / w.Counters.CPI
	}
	return total / float64(len(ws))
}

// BenchmarkFig5SpecA53 evaluates a validated in-order model on the SPEC
// workloads (Figure 5). The board's true config stands in for the tuned
// model so the bench isolates evaluation cost; the full tuned-model figure
// comes from `racesim experiments`.
func BenchmarkFig5SpecA53(b *testing.B) {
	p := benchPlatform(b)
	ws := specWorkloads(b, p.A53, 30_000)
	tuned := p.A53.TrueConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(specMeanError(b, tuned, ws)*100, "cpi-err-pct")
	}
}

// BenchmarkFig6SpecA72 is the out-of-order counterpart (Figure 6).
func BenchmarkFig6SpecA72(b *testing.B) {
	p := benchPlatform(b)
	ws := specWorkloads(b, p.A72, 30_000)
	tuned := p.A72.TrueConfig()
	// The public model cannot express the spatial prefetcher; evaluating
	// the truth config with the closest expressible prefetcher mirrors
	// the tuned model's residual error.
	tuned.Mem.L2.Prefetch.Kind = "stride"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(specMeanError(b, tuned, ws)*100, "cpi-err-pct")
	}
}

// BenchmarkFig7PerturbA53 runs the near-optimum worst-case search
// (Figure 7).
func BenchmarkFig7PerturbA53(b *testing.B) {
	p := benchPlatform(b)
	ws := specWorkloads(b, p.A53, 15_000)[:6]
	tuned := p.A53.TrueConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := perturb.WorstNearOptimum(tuned, ws, perturb.Options{
			Restarts: 1, MaxPasses: 1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanError*100, "worst-err-pct")
	}
}

// BenchmarkFig8PerturbA72 is the out-of-order counterpart (Figure 8).
func BenchmarkFig8PerturbA72(b *testing.B) {
	p := benchPlatform(b)
	ws := specWorkloads(b, p.A72, 15_000)[:6]
	tuned := p.A72.TrueConfig()
	tuned.Mem.L2.Prefetch.Kind = "stride"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := perturb.WorstNearOptimum(tuned, ws, perturb.Options{
			Restarts: 1, MaxPasses: 1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanError*100, "worst-err-pct")
	}
}

// BenchmarkStagedValidation runs the full Figure 1 pipeline at small scale
// (Sec. IV-B narrative).
func BenchmarkStagedValidation(b *testing.B) {
	p := benchPlatform(b)
	for i := 0; i < b.N; i++ {
		stages, err := validate.Pipeline(p.A53, sim.PublicA53(), validate.PaperStages(400, 500), validate.PipelineOptions{
			Seed: int64(i), UbenchScale: 0.002,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stages[0].MeanError*100, "untuned-pct")
		b.ReportMetric(stages[len(stages)-1].MeanError*100, "final-pct")
	}
}

// BenchmarkAblationTunerComparison compares iterated racing against random
// search at equal budget (design-choice ablation from DESIGN.md).
func BenchmarkAblationTunerComparison(b *testing.B) {
	p := benchPlatform(b)
	ms, err := validate.MeasureSuite(p.A53, ubench.Options{Scale: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	eval := &validate.Evaluator{Base: sim.PublicA53(), Ms: ms}
	space, err := sim.Space(core.InOrder, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner, err := irace.New(space, eval, irace.Options{Budget: 600, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		raced, err := tuner.Run()
		if err != nil {
			b.Fatal(err)
		}
		random, err := irace.RandomSearch(space, eval, irace.Options{Budget: 600, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(raced.BestCost*100, "irace-cost-pct")
		b.ReportMetric(random.BestCost*100, "random-cost-pct")
	}
}

// BenchmarkSimulatorInOrderThroughput measures raw in-order simulation
// speed (instructions simulated per second drive irace turnaround, the
// paper's Sec. III-C concern).
func BenchmarkSimulatorInOrderThroughput(b *testing.B) {
	p, ok := ubench.ByName("MIP")
	if !ok {
		b.Fatal("missing MIP")
	}
	tr, err := p.Trace(ubench.Options{Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.PublicA53()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len()))
}

// BenchmarkSimulatorOoOThroughput is the out-of-order counterpart.
func BenchmarkSimulatorOoOThroughput(b *testing.B) {
	p, ok := ubench.ByName("MIP")
	if !ok {
		b.Fatal("missing MIP")
	}
	tr, err := p.Trace(ubench.Options{Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.PublicA72()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len()))
}

// BenchmarkTraceRoundTrip measures RIFT encode/decode throughput.
func BenchmarkTraceRoundTrip(b *testing.B) {
	p, _ := ubench.ByName("MD")
	tr, err := p.Trace(ubench.Options{Scale: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		got, err := trace.ReadFrom(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != tr.Len() {
			b.Fatal("round trip length mismatch")
		}
	}
}
