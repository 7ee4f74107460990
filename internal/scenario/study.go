package scenario

import (
	"cmp"
	"fmt"
	"strings"

	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/validate"
)

// referenceBoard is the noise level of a cell on the platform's own board.
const referenceBoard = -1

// cell is one point of a study's grid: a core tuned on a board with a
// stage list, scored on the suite and on the eval core's held-out Table II
// workloads. The paper's claim is that the second follows from the first.
type cell struct {
	core, evalCore string
	noise          float64 // the re-noised board's level, or referenceBoard
	budget         int     // 0: the paper's stages; else [untuned, tuned(budget)]
	seedOffset     int64
}

// studyUnits expands a study into one unit per cell of cores × noise
// levels × budgets, in that nesting. A unit's ID is the scenario's name
// for a one-cell grid; otherwise the name, then each axis that takes more
// than one value (core, noise=<level>, budget=<b>), joined by "/".
func studyUnits(sp Spec) []Unit {
	levels, budgets := sp.NoiseLevels, sp.Budgets
	if len(levels) == 0 {
		levels = []float64{referenceBoard}
	}
	if len(budgets) == 0 {
		budgets = []int{0}
	}
	var units []Unit
	for _, core := range sp.Cores {
		for _, level := range levels {
			for _, budget := range budgets {
				c := cell{core: core, evalCore: cmp.Or(sp.EvalCore, core), noise: level, budget: budget, seedOffset: sp.SeedOffset}
				var axes []string
				if len(sp.Cores) > 1 {
					axes = append(axes, core)
				}
				if len(sp.NoiseLevels) > 1 {
					axes = append(axes, fmt.Sprintf("noise=%g", level))
				}
				if len(sp.Budgets) > 1 {
					axes = append(axes, fmt.Sprintf("budget=%d", budget))
				}
				id := sp.Name
				if len(axes) > 0 {
					id += "/" + strings.Join(axes, "/")
				}
				units = append(units, Unit{ID: id, Scenario: sp.Name, Deps: c.deps(),
					run: func(ctx *expt.Context) (expt.Experiment, error) { return c.run(ctx, id) }})
			}
		}
	}
	return units
}

// paper reports whether the cell is its core's validation pipeline,
// which expt.Context.Stages runs once for every unit that asks.
func (c cell) paper() bool {
	return c.noise == referenceBoard && c.budget == 0 && c.seedOffset == 0
}

// deps names the Context artifacts the cell consumes: its core's pipeline
// or, for any other cell, the core's board measuring the raw suite (a
// re-noised board replays the reference board's traces), and the eval
// core's held-out workloads.
func (c cell) deps() []string {
	tuned := "measure:" + c.core
	if c.paper() {
		tuned = "stages:" + c.core
	}
	return []string{tuned, "spec:" + c.evalCore}
}

// stages lists the cell's validation stages at the context's budgets.
func (c cell) stages(o expt.Options) []validate.Stage {
	if c.budget == 0 {
		return validate.PaperStages(o.BudgetRound1, o.BudgetRound2)
	}
	return []validate.Stage{{Name: "untuned"}, {Name: "tuned", Budget: c.budget}}
}

// tune runs the cell's stages on its board at its seed (Context.Seed).
func (c cell) tune(ctx *expt.Context, stages []validate.Stage) ([]validate.StageResult, error) {
	if c.paper() {
		return ctx.Stages(c.core)
	}
	board, public, err := expt.Core(ctx.Platform(), c.core)
	if err != nil {
		return nil, err
	}
	if c.noise != referenceBoard {
		// The board over the same hidden ground truth with another noise
		// amplitude. The level is part of the board name, so its
		// deterministic pseudo-noise stream differs per level, as
		// re-measuring on another physical board would; over the same
		// cache it shares the reference board's replays.
		board, err = hw.NewBoard(fmt.Sprintf("%s-noise-%g", board.Name, c.noise), board.FreqGHz, board.TrueConfig(), c.noise)
		if err != nil {
			return nil, err
		}
		board = board.WithCache(ctx.Options().Cache)
	}
	return ctx.Run(board, public, stages, ctx.Seed(c.core, c.seedOffset))
}

// run renders the cell: one row per stage with the race's spend and the
// suite and held-out errors, then the final stage's held-out error per
// workload.
func (c cell) run(ctx *expt.Context, id string) (expt.Experiment, error) {
	stages := c.stages(ctx.Options())
	st, err := c.tune(ctx, stages)
	if err != nil {
		return expt.Experiment{}, err
	}
	ws, err := ctx.Spec(c.evalCore)
	if err != nil {
		return expt.Experiment{}, err
	}
	board, plan := "reference board", "paper stages"
	if c.noise != referenceBoard {
		board = fmt.Sprintf("±%.1f%% measurement noise", c.noise*100)
	}
	if c.budget > 0 {
		plan = fmt.Sprintf("budget %d", c.budget)
	}
	title := fmt.Sprintf("%s-tuned model on %s workloads (%s, %s)", c.core, c.evalCore, board, plan)
	t := &expt.Table{Title: title, Headers: []string{"stage", "evaluations", "iterations", "best race cost",
		"suite mean", "worst bench", "held-out mean", "held-out worst"}}
	cfgs := make([]sim.Config, len(st))
	for i, s := range st {
		cfgs[i] = s.Config
	}
	heldOut, err := ctx.SpecErrors(cfgs, ws)
	if err != nil {
		return expt.Experiment{}, err
	}
	var mean, worst float64
	for i, s := range st {
		worstBench, _, err := validate.MaxError(s.Errors)
		if err != nil {
			return expt.Experiment{}, err
		}
		if mean, worst, err = expt.MeanWorst(heldOut[i]); err != nil {
			return expt.Experiment{}, err
		}
		evals, iters, cost := "-", "-", "-"
		if r := s.Irace; r != nil {
			evals = fmt.Sprintf("%d/%d", r.Evaluations, stages[i].Budget)
			iters, cost = fmt.Sprintf("%d", len(r.Iterations)), fmt.Sprintf("%.4f", r.BestCost)
		}
		t.AddRow(s.Name, evals, iters, cost, expt.Pct(s.MeanError),
			fmt.Sprintf("%s (%s)", worstBench.Name, expt.Pct(worstBench.Error)), expt.Pct(mean), expt.Pct(worst))
	}
	last := st[len(st)-1]
	return expt.Experiment{
		ID:    id,
		Title: title,
		Paper: "beyond the paper: the paper tunes each core once, on its own board, at fixed budgets",
		Measured: fmt.Sprintf("%s stage: suite mean %s, held-out mean %s, worst %s",
			last.Name, expt.Pct(last.MeanError), expt.Pct(mean), expt.Pct(worst)),
		Body: t.Render() + "\n" + expt.SpecTable(fmt.Sprintf("Held-out CPI error, %s stage", last.Name), heldOut[len(st)-1]),
	}, nil
}
