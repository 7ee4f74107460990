package engine

import (
	"cmp"
	"fmt"
	"math"

	"racesim/internal/core"
	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/isa"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/validate"
)

func (e *env) ubenchJob(j *UbenchJob) error {
	if j == nil {
		j = &UbenchJob{}
	}
	dumpOut := j.DumpOut
	if dumpOut == "" {
		dumpOut = "bench.rift"
	}
	opts := ubench.Options{Scale: cmp.Or(j.Scale, ubench.DefaultScale), InitArrays: j.InitArrays}
	switch {
	case j.Disasm != "":
		b, ok := ubench.ByName(j.Disasm)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", j.Disasm)
		}
		prog, err := b.Program(opts)
		if err != nil {
			return err
		}
		listing, err := isa.DisassembleProgram(prog)
		if err != nil {
			return err
		}
		e.printf("%s", listing)
		return nil

	case j.List:
		e.printf("%-14s %-12s %12s  %s\n", "bench", "category", "paper insns", "description")
		for _, b := range ubench.Suite() {
			e.printf("%-14s %-12s %12d  %s\n", b.Name, b.Category, b.PaperInstructions, b.Description)
		}
		return nil

	case j.Dump != "":
		b, ok := ubench.ByName(j.Dump)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", j.Dump)
		}
		tr, err := e.memo.Ubench(b, opts)
		if err != nil {
			return err
		}
		if err := tr.WriteFile(dumpOut); err != nil {
			return err
		}
		e.printf("wrote %s: %d instructions\n", dumpOut, tr.Len())
		return nil

	case j.Compare != "":
		board, cfg, err := e.board(j.Core)
		if err != nil {
			return err
		}
		if err := e.openSnapshot("ubench", func(format string, args ...any) {
			e.eprintf(format+"\n", args...)
		}); err != nil {
			return err
		}
		if j.Compare == "all" {
			return e.compareSuite(board, cfg, opts)
		}
		return e.compareOne(j.Compare, board, cfg, opts)
	}
	return fmt.Errorf("one of list, dump, compare or disasm is required")
}

// board resolves a job's core name ("" = "a53") to its reference board,
// keeping its replays in the job's cache, and the core's public model. A
// typo'd core is an error, never plausible wrong-core numbers.
func (e *env) board(core string) (*hw.Board, sim.Config, error) {
	plat, err := hw.Firefly()
	if err != nil {
		return nil, sim.Config{}, err
	}
	return expt.Core(plat.WithCache(e.cache), core)
}

// compared is one benchmark's board measurement next to the model's run
// of the same trace.
type compared struct {
	validate.Measurement
	model core.Result
}

// errPct is the model's signed relative CPI error, in percent.
func (c compared) errPct() float64 {
	return (c.model.CPI() - c.Counters.CPI) / c.Counters.CPI * 100
}

// compare runs the model on every measurement's trace through the cache,
// on the worker pool, in measurement order.
func (e *env) compare(cfg sim.Config, ms []validate.Measurement) ([]compared, error) {
	trs := make([]*trace.Trace, len(ms))
	for i, m := range ms {
		trs[i] = m.Trace
	}
	rs, err := e.cache.RunBatch(e.ctx, []sim.Config{cfg}, trs, e.par)
	if err != nil {
		return nil, err
	}
	out := make([]compared, len(ms))
	for i, m := range ms {
		out[i] = compared{Measurement: m, model: rs[i]}
	}
	return out, nil
}

func (e *env) compareOne(name string, board *hw.Board, cfg sim.Config, opts ubench.Options) error {
	b, ok := ubench.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", name)
	}
	m, err := validate.MeasureBench(board, b, opts, e.memo)
	if err != nil {
		return err
	}
	cs, err := e.compare(cfg, []validate.Measurement{m})
	if err != nil {
		return err
	}
	c := cs[0]
	e.printf("benchmark:     %s (%d instructions)\n", b.Name, c.Trace.Len())
	e.printf("board CPI:     %.4f (%s)\n", c.Counters.CPI, board.Name)
	e.printf("model CPI:     %.4f (%s)\n", c.model.CPI(), cfg.Name)
	e.printf("CPI error:     %+.1f%%\n", c.errPct())
	e.printf("board brMPKI:  %.2f   model brMPKI: %.2f\n",
		c.Counters.BranchMPKI, c.model.Branch.MPKI(c.model.Instructions))
	return nil
}

// compareSuite runs every benchmark through board and model. Rows are
// assembled in suite order, so the output is identical for any
// parallelism and cache warmth.
func (e *env) compareSuite(board *hw.Board, cfg sim.Config, opts ubench.Options) error {
	ms, err := validate.MeasureSuiteWith(board, opts, e.memo, e.par)
	if err != nil {
		return err
	}
	cs, err := e.compare(cfg, ms)
	if err != nil {
		return err
	}
	e.printf("%-14s %10s %10s %10s %8s\n", "bench", "insns", "board CPI", "model CPI", "error")
	mean := 0.0
	for _, c := range cs {
		e.printf("%-14s %10d %10.4f %10.4f %+7.1f%%\n", c.Bench.Name, c.Trace.Len(), c.Counters.CPI, c.model.CPI(), c.errPct())
		mean += math.Abs(c.errPct())
	}
	e.printf("\nmean |CPI error| over %d benchmarks: %.1f%% (%s vs %s)\n",
		len(cs), mean/float64(len(cs)), board.Name, cfg.Name)
	return nil
}
