package validate

import (
	"context"

	"racesim/internal/plausibility"
	"racesim/internal/report"
	"racesim/internal/sim"
	"racesim/internal/simcache"
)

// CollectSamples evaluates cfg on every measurement and returns the raw
// report data: per-benchmark simulated-vs-hardware CPI samples in
// measurement order, plus any physical-plausibility violations observed
// on the configuration or the simulated results (one line per
// violation, "BENCH: invariant: detail", measurement order). The work
// runs through the optional shared simulation cache over a bounded
// worker pool; the output is identical for any parallelism.
func CollectSamples(cfg sim.Config, ms []Measurement, cache *simcache.Cache, parallelism int) ([]report.Sample, []string, error) {
	var plaus []string
	for _, v := range plausibility.CheckConfig(cfg) {
		plaus = append(plaus, "config: "+v.String())
	}
	// CollectSamples keeps a signature without a context.
	rs, _, err := Score(context.TODO(), []sim.Config{cfg}, ms, cache, parallelism)
	if err != nil {
		return nil, nil, err
	}
	samples := make([]report.Sample, len(ms))
	for i, m := range ms {
		samples[i] = report.Sample{
			Bench:    m.Bench.Name,
			Category: string(m.Bench.Category),
			SimCPI:   rs[i].CPI(),
			HWCPI:    m.Counters.CPI,
		}
		for _, v := range plausibility.CheckResult(cfg, rs[i]) {
			plaus = append(plaus, m.Bench.Name+": "+v.String())
		}
	}
	return samples, plaus, nil
}
