package engine

import (
	"fmt"
	"math"

	"racesim/internal/core"
	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/isa"
	"racesim/internal/sim"
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
	opts := ubench.Options{Scale: j.Scale, InitArrays: j.InitArrays}
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
		return e.compare(j.Compare, board, cfg, opts)
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

// compare scores the model against the board (validate.Score) on one
// benchmark or, for "all", on the suite. Rows are in suite order, so the
// output is identical for any parallelism and cache warmth.
func (e *env) compare(name string, board *hw.Board, cfg sim.Config, opts ubench.Options) error {
	var ms []validate.Measurement
	if name == "all" {
		var err error
		if ms, err = validate.MeasureSuiteWith(board, opts, e.memo, e.par); err != nil {
			return err
		}
	} else {
		b, ok := ubench.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		m, err := validate.MeasureBench(board, b, opts, e.memo)
		if err != nil {
			return err
		}
		ms = []validate.Measurement{m}
	}
	rs := make([]core.Result, len(ms))
	rows, err := validate.Score(e.ctx, []sim.Config{cfg}, ms, e.cache, e.par, rs)
	if err != nil {
		return err
	}
	// The error in percent, signed: negative when the model runs faster
	// than the board.
	signedPct := func(i int) float64 { return math.Copysign(rows[i].Error*100, rs[i].CPI()-ms[i].Counters.CPI) }
	if name != "all" {
		m, res := ms[0], rs[0]
		e.printf("benchmark:     %s (%d instructions)\n", m.Bench.Name, m.Trace.Len())
		e.printf("board CPI:     %.4f (%s)\n", m.Counters.CPI, board.Name)
		e.printf("model CPI:     %.4f (%s)\n", res.CPI(), cfg.Name)
		e.printf("CPI error:     %+.1f%%\n", signedPct(0))
		e.printf("board brMPKI:  %.2f   model brMPKI: %.2f\n",
			m.Counters.BranchMPKI, res.Branch.MPKI(res.Instructions))
		return nil
	}
	e.printf("%-14s %10s %10s %10s %8s\n", "bench", "insns", "board CPI", "model CPI", "error")
	mean := 0.0
	for i, m := range ms {
		e.printf("%-14s %10d %10.4f %10.4f %+7.1f%%\n", m.Bench.Name, m.Trace.Len(), m.Counters.CPI, rs[i].CPI(), signedPct(i))
		mean += rows[i].Error * 100
	}
	e.printf("\nmean |CPI error| over %d benchmarks: %.1f%% (%s vs %s)\n",
		len(ms), mean/float64(len(ms)), board.Name, cfg.Name)
	return nil
}
