package engine

import (
	"encoding/json"
	"fmt"
	"strings"

	"racesim/internal/core"
	"racesim/internal/expt"
	"racesim/internal/par"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// expand resolves a comma-separated name list, where "all" selects every
// known name (in canonical order).
func expand(arg string, all []string) []string {
	if arg == "all" {
		return all
	}
	var out []string
	for _, n := range strings.Split(arg, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// gather resolves the job's trace selectors and generates the traces on
// the worker pool: emulation dominates batch startup. Generated traces
// (ubench emulation, workload synthesis) are deterministic in their
// parameters and fetched through e.memo — the serve steady state re-runs
// the same job shapes, and a memo hit skips both emulation and decode
// (the trace carries its decoded forms). TracePath replays are not
// memoized: the file can change between jobs.
func (e *env) gather(j *RunJob, events int, scale float64) ([]*trace.Trace, error) {
	var producers []func() (*trace.Trace, error)
	if j.Ubench != "" {
		var names []string
		for _, b := range ubench.Suite() {
			names = append(names, b.Name)
		}
		for _, n := range expand(j.Ubench, names) {
			b, ok := ubench.ByName(n)
			if !ok {
				return nil, fmt.Errorf("unknown micro-benchmark %q (see racesim ubench -list)", n)
			}
			producers = append(producers, func() (*trace.Trace, error) {
				return e.memo.Ubench(b, ubench.Options{Scale: scale})
			})
		}
	}
	if j.Workload != "" {
		var names []string
		for _, p := range workload.Profiles() {
			names = append(names, p.Name)
		}
		for _, n := range expand(j.Workload, names) {
			p, ok := workload.ByName(n)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", n)
			}
			producers = append(producers, func() (*trace.Trace, error) {
				return e.memo.Workload(p, workload.Options{Events: events, Seed: j.Seed})
			})
		}
	}
	if j.TracePath != "" {
		producers = append(producers, func() (*trace.Trace, error) {
			return trace.ReadFile(j.TracePath)
		})
	}
	if len(producers) == 0 {
		return nil, fmt.Errorf("one of ubench, workload or trace is required")
	}
	trs := make([]*trace.Trace, len(producers))
	err := par.ForEachCtx(e.ctx, len(producers), e.par, func(i int) error {
		tr, err := producers[i]()
		if err != nil {
			return err
		}
		trs[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return trs, nil
}

// resolveConfig picks the job's simulator configuration.
func resolveConfig(j *RunJob) (sim.Config, error) {
	switch {
	case j.ConfigPath != "" && len(j.ConfigJSON) > 0:
		return sim.Config{}, fmt.Errorf("config_path and config_json are mutually exclusive")
	case j.ConfigPath != "":
		return sim.LoadConfig(j.ConfigPath)
	case len(j.ConfigJSON) > 0:
		var cfg sim.Config
		if err := json.Unmarshal(j.ConfigJSON, &cfg); err != nil {
			return sim.Config{}, fmt.Errorf("config_json: %w", err)
		}
		if err := core.Config(cfg).Validate(); err != nil {
			return sim.Config{}, fmt.Errorf("config_json: %w", err)
		}
		return cfg, nil
	case j.Preset == "" || j.Preset == "public-a53":
		return sim.PublicA53(), nil
	case j.Preset == "public-a72":
		return sim.PublicA72(), nil
	default:
		return sim.Config{}, fmt.Errorf("unknown preset %q", j.Preset)
	}
}

// orDefault resolves a job's size: v, or def when v is zero or negative.
// It is resolved here, not below: the trace memo keys an input by its
// options, so a negative size must not be another key for the default's.
func orDefault[T int | float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

func (e *env) runJob(j *RunJob) error {
	if j == nil {
		j = &RunJob{}
	}
	cfg, err := resolveConfig(j)
	if err != nil {
		return err
	}

	// The snapshot is opened before the traces are fetched: it may say what
	// they are, and then a warm run generates none of them. This job has
	// never logged its loads and saves.
	if err := e.openSnapshot("racesim", func(string, ...any) {}); err != nil {
		return err
	}
	trs, err := e.gather(j, orDefault(j.Events, expt.DefaultWorkloadEvents), orDefault(j.Scale, ubench.DefaultScale))
	if err != nil {
		return err
	}
	results, err := e.cache.RunBatch(e.ctx, []sim.Config{cfg}, trs, e.par)
	if err != nil {
		return err
	}

	if len(trs) == 1 {
		tr, res := trs[0], results[0]
		e.printf("config:        %s (%s)\n", cfg.Name, cfg.Kind)
		e.printf("trace:         %s (%d instructions)\n", tr.Name, tr.Len())
		e.printf("cycles:        %d\n", res.Cycles)
		e.printf("CPI:           %.4f   (IPC %.4f)\n", res.CPI(), res.IPC())
		e.printf("branch MPKI:   %.2f   (mispredicts %d)\n",
			res.Branch.MPKI(res.Instructions), res.Branch.Mispredicts())
		e.printf("L1D miss rate: %.2f%%  L2 miss rate: %.2f%%\n",
			res.Mem.L1D.MissRate()*100, res.Mem.L2.MissRate()*100)
		e.printf("stalls:        front-end %d, data %d, structural %d cycles\n",
			res.StallFrontEnd, res.StallData, res.StallStruct)
	} else {
		t := &expt.Table{
			Title:   fmt.Sprintf("%s (%s): %d traces", cfg.Name, cfg.Kind, len(trs)),
			Headers: []string{"trace", "insns", "cycles", "CPI", "br MPKI", "L1D miss", "L2 miss"},
		}
		for i, tr := range trs {
			res := results[i]
			t.AddRow(tr.Name, fmt.Sprintf("%d", tr.Len()), fmt.Sprintf("%d", res.Cycles),
				fmt.Sprintf("%.4f", res.CPI()),
				fmt.Sprintf("%.2f", res.Branch.MPKI(res.Instructions)),
				fmt.Sprintf("%.2f%%", res.Mem.L1D.MissRate()*100),
				fmt.Sprintf("%.2f%%", res.Mem.L2.MissRate()*100))
		}
		e.printf("%s", t.Render())
	}

	if e.path != "" {
		st := e.cache.Stats()
		e.eprintf("cache: %d hits, %d misses (%.1f%% hit rate)\n",
			st.Hits, st.Misses, st.HitRate()*100)
		e.traceSummary()
	}
	return nil
}
