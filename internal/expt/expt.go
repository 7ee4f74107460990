package expt

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"racesim/internal/hw"
	"racesim/internal/par"
	"racesim/internal/perturb"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/validate"
	"racesim/internal/version"
	"racesim/internal/workload"
)

// The sizes of the paper's flow (Fig. 1) an experiment run uses when its
// Options leave them zero: minutes-scale regeneration on a laptop. The
// experiments and sweep flags and the experiments job read them from here
// (docs/cli.md).
const (
	DefaultWorkloadEvents = 60_000 // Table II workload trace length
	DefaultBudgetRound1   = 2500   // irace budget, tuning round 1
	DefaultBudgetRound2   = 3500   // irace budget, tuning round 2
)

// Options sizes the experiment runs. A zero size means its default:
// ubench.DefaultScale, DefaultWorkloadEvents, DefaultBudgetRound1,
// DefaultBudgetRound2 and perturb.DefaultRestarts.
type Options struct {
	UbenchScale     float64
	WorkloadEvents  int
	BudgetRound1    int
	BudgetRound2    int
	PerturbRestarts int
	Seed            int64
	// Parallelism bounds the concurrent simulations of one experiment:
	// each batch it submits runs on this many workers (<=0: GOMAXPROCS).
	// The experiments a scenario run starts together each get their own
	// workers; at 1 the run starts them one at a time too, so everything
	// runs one at a time. Output is byte-identical for any value:
	// simulation is deterministic and results are reassembled in
	// submission order.
	Parallelism int
	// Cache, when non-nil, memoizes simulation results — the boards'
	// replays included — across all experiments (and across processes via
	// simcache LoadFile/SaveFile).
	Cache *simcache.Cache
	// TraceMemo, when non-nil, is the memo every generated input is
	// fetched through (a serve worker's process-lifetime one). Nil gives
	// the context a private one, so each distinct input is still built
	// once per context — and not at all when Cache remembers, from an
	// earlier run of this build, what it was (tracememo.WithIdentities).
	TraceMemo *tracememo.Memo
	// Context, when non-nil, cancels experiment execution: every batch
	// checks it before dispatching each simulation unit and the tuning
	// pipelines check it per race step, so a cancelled sweep stops within
	// one simulation batch.
	Context context.Context
	Log     func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.WorkloadEvents <= 0 {
		o.WorkloadEvents = DefaultWorkloadEvents
	}
	if o.BudgetRound1 <= 0 {
		o.BudgetRound1 = DefaultBudgetRound1
	}
	if o.BudgetRound2 <= 0 {
		o.BudgetRound2 = DefaultBudgetRound2
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Context caches the tuned models across experiments and owns what every
// experiment shares: the boards, the simulation cache each grid of units
// is submitted to (simcache.Cache.RunBatch, Options.Parallelism wide), and
// the trace memo inputs are fetched through. Inputs and board
// measurements are not cached here — the memo builds each distinct trace
// once and the boards keep their replays in the simulation cache, so an
// experiment that asks again gets lookups. Its methods may be called from
// concurrent experiments.
type Context struct {
	opts Options
	plat *hw.Platform
	memo *tracememo.Memo

	mu     sync.Mutex
	stages map[string]*stagesCall // by core; guarded by mu
}

// stagesCall is one run of a core's validation pipeline: done closes when
// st and err are final.
type stagesCall struct {
	done chan struct{}
	st   []validate.StageResult
	err  error
}

// cores are the reference platform's cores by the names every driver uses:
// the board, the public model the validation pipeline starts from, and the
// offset of the core's pipeline seed from the run's, so the two pipelines
// of one run draw different random streams.
var cores = map[string]struct {
	board      func(*hw.Platform) *hw.Board
	public     func() sim.Config
	seedOffset int64
}{
	"a53": {func(p *hw.Platform) *hw.Board { return p.A53 }, sim.PublicA53, 0},
	"a72": {func(p *hw.Platform) *hw.Board { return p.A72 }, sim.PublicA72, 100},
}

// IsCore reports whether name is a core of the reference platform.
func IsCore(name string) bool {
	_, ok := cores[name]
	return ok
}

// Core resolves a core name ("" is "a53") to its board on plat and its
// public model. An unknown name is an error, never the A53's numbers.
func Core(plat *hw.Platform, name string) (*hw.Board, sim.Config, error) {
	c, ok := cores[cmp.Or(name, "a53")]
	if !ok {
		return nil, sim.Config{}, fmt.Errorf("unknown core %q", name)
	}
	return c.board(plat), c.public(), nil
}

// NewContext builds a context over the reference platform.
func NewContext(opts Options) (*Context, error) {
	plat, err := hw.Firefly()
	if err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	memo := o.TraceMemo
	if memo == nil {
		memo = tracememo.New(0, 0).WithIdentities(o.Cache.TraceIdentities(version.BuildID()))
	}
	return &Context{
		opts: o, plat: plat.WithCache(o.Cache),
		memo:   memo,
		stages: map[string]*stagesCall{},
	}, nil
}

// Platform exposes the reference boards.
func (c *Context) Platform() *hw.Platform { return c.plat }

// Options exposes the sizing knobs the context was built with, defaults
// resolved, so the scenario engine can derive per-unit budgets, seeds and
// widths from the same source of truth.
func (c *Context) Options() Options { return c.opts }

// Stages lazily runs the full validation pipeline for a core, once per
// context. Concurrent callers for one core share the run in flight: the
// first caller runs it and the others wait for its result, while a caller
// for the other core runs that core's pipeline beside it. A failed run is
// not kept: its waiters get its error, and the next caller runs the
// pipeline again.
func (c *Context) Stages(core string) ([]validate.StageResult, error) {
	c.mu.Lock()
	call, running := c.stages[core]
	if !running {
		call = &stagesCall{done: make(chan struct{})}
		c.stages[core] = call
	}
	c.mu.Unlock()
	if running {
		<-call.done
		return call.st, call.err
	}
	// The error stands if the pipeline panics: its waiters are released
	// with it and the panic goes on up the caller's stack.
	call.err = fmt.Errorf("expt: the %s validation pipeline panicked", core)
	defer func() {
		if call.err != nil {
			c.mu.Lock()
			delete(c.stages, core)
			c.mu.Unlock()
		}
		close(call.done)
	}()
	call.st, call.err = c.pipeline(core)
	return call.st, call.err
}

// pipeline runs a core's validation pipeline: the paper's stages.
func (c *Context) pipeline(core string) ([]validate.StageResult, error) {
	board, public, err := Core(c.plat, core)
	if err != nil {
		return nil, err
	}
	return c.Run(board, public, validate.PaperStages(c.opts.BudgetRound1, c.opts.BudgetRound2), c.Seed(core, 0))
}

// Seed is the seed a run of stages tuning core draws from: the run's
// seed, plus the core's offset, plus offset. Stages(core) runs at offset 0.
func (c *Context) Seed(core string, offset int64) int64 {
	return c.opts.Seed + cores[core].seedOffset + offset
}

// Run runs stages on board from base (validate.Pipeline), the k-th tuning
// round drawing seed+k, over what every race of the context shares: the
// trace memo — so the raw suite is Table I's and both pipelines', and a
// board built over the context's cache replays each trace once — the
// cache, worker pool, cancellation and log.
func (c *Context) Run(board *hw.Board, base sim.Config, stages []validate.Stage, seed int64) ([]validate.StageResult, error) {
	return validate.Pipeline(board, base, stages, validate.PipelineOptions{
		Seed:        seed,
		UbenchScale: c.opts.UbenchScale,
		Cache:       c.opts.Cache,
		TraceMemo:   c.memo,
		Parallelism: c.opts.Parallelism,
		Context:     c.opts.Context,
		Log:         c.opts.Log,
	})
}

// workloads fetches the Table II traces, in profile order.
func (c *Context) workloads() ([]*trace.Trace, error) {
	profiles := workload.Profiles()
	trs := make([]*trace.Trace, len(profiles))
	err := par.ForEachCtx(c.opts.Context, len(profiles), c.opts.Parallelism, func(i int) (err error) {
		trs[i], err = c.memo.Workload(profiles[i], workload.Options{Events: c.opts.WorkloadEvents, Seed: c.opts.Seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	return trs, nil
}

// Spec measures the Table II workloads on a core's board, all at once.
// Board measurements are deterministic (the pseudo-noise is a pure function
// of the trace identity), so this returns exactly what measuring them one
// after another would.
func (c *Context) Spec(core string) ([]validate.Measurement, error) {
	board, _, err := Core(c.plat, core)
	if err != nil {
		return nil, err
	}
	trs, err := c.workloads()
	if err != nil {
		return nil, err
	}
	out := make([]validate.Measurement, len(trs))
	err = par.ForEachCtx(c.opts.Context, len(trs), c.opts.Parallelism, func(i int) error {
		counters, err := board.Measure(trs[i])
		out[i] = validate.Measurement{Bench: ubench.Bench{Name: trs[i].Name, Category: "spec"}, Trace: trs[i], Counters: counters}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table1 regenerates Table I: the micro-benchmark suite and its dynamic
// instruction counts (paper counts plus this build's scaled counts).
func (c *Context) Table1() (Experiment, error) {
	t := &Table{
		Title:   "Table I: micro-benchmarks and dynamic instruction counts",
		Headers: []string{"category", "bench", "paper insns", "scaled insns", "stresses"},
	}
	opts := ubench.Options{Scale: c.opts.UbenchScale}
	type row struct {
		cat   ubench.Category
		bench ubench.Bench
		insns int
	}
	var rows []row
	for _, cat := range ubench.Categories {
		for _, b := range ubench.ByCategory(cat) {
			rows = append(rows, row{cat: cat, bench: b})
		}
	}
	// Trace generation (emulation) dominates this table when it is the
	// first to ask for the suite; fan it out and assemble rows in suite
	// order.
	err := par.ForEachCtx(c.opts.Context, len(rows), c.opts.Parallelism, func(i int) error {
		tr, err := c.memo.Ubench(rows[i].bench, opts)
		if err != nil {
			return err
		}
		rows[i].insns = tr.Len()
		return nil
	})
	if err != nil {
		return Experiment{}, err
	}
	for _, r := range rows {
		t.AddRow(string(r.cat), r.bench.Name, fmt.Sprintf("%d", r.bench.PaperInstructions),
			fmt.Sprintf("%d", r.insns), r.bench.Description)
	}
	return Experiment{
		ID:       "table1",
		Title:    "Micro-benchmark suite",
		Paper:    "40 micro-benchmarks in 5 categories, 4 K – 66 M dynamic instructions",
		Measured: fmt.Sprintf("%d benchmarks in %d categories, scaled traces per column 4", len(ubench.Suite()), len(ubench.Categories)),
		Body:     t.Render(),
	}, nil
}

// Table2 regenerates Table II: the SPEC CPU2017 workloads.
func (c *Context) Table2() (Experiment, error) {
	t := &Table{
		Title:   "Table II: SPEC CPU2017 region workloads",
		Headers: []string{"benchmark", "file", "line", "paper insns", "synthesized insns"},
	}
	trs, err := c.workloads()
	if err != nil {
		return Experiment{}, err
	}
	for i, p := range workload.Profiles() {
		t.AddRow(p.Name, p.SourceFile, fmt.Sprintf("%d", p.Line),
			fmt.Sprintf("%d", p.PaperInstructions), fmt.Sprintf("%d", trs[i].Len()))
	}
	return Experiment{
		ID:       "table2",
		Title:    "SPEC CPU2017 region workloads",
		Paper:    "11 C/C++ benchmarks, 443 M – 14.9 G instructions (train inputs)",
		Measured: "11 synthetic profiles with matching roles, scaled traces",
		Body:     t.Render(),
	}, nil
}

// Fig2 regenerates the racing-dynamics view: surviving configurations per
// benchmark instance during a one-stage irace run on the A53.
func (c *Context) Fig2() (Experiment, error) {
	st, err := c.Run(c.plat.A53, sim.PublicA53(), []validate.Stage{{Name: "tuned", Budget: c.opts.BudgetRound1}}, c.opts.Seed)
	if err != nil {
		return Experiment{}, err
	}
	race := st[0].Irace
	t := &Table{
		Title:   "Figure 2: iterated-racing elimination dynamics",
		Headers: []string{"iteration", "instance", "alive", ""},
	}
	maxAlive := 0
	for _, ev := range race.RaceTrace {
		if ev.Alive > maxAlive {
			maxAlive = ev.Alive
		}
	}
	for _, ev := range race.RaceTrace {
		t.AddRow(fmt.Sprintf("%d", ev.Iteration), fmt.Sprintf("%d", ev.Instance),
			fmt.Sprintf("%d", ev.Alive), Bar(float64(ev.Alive), float64(maxAlive), 40))
	}
	return Experiment{
		ID:       "fig2",
		Title:    "irace sampling / racing / elimination",
		Paper:    "candidates are eliminated as instances accumulate; survivors seed the next iteration",
		Measured: fmt.Sprintf("%d race events, final best cost %.3f", len(race.RaceTrace), race.BestCost),
		Body:     t.Render(),
	}, nil
}

// errTable renders per-benchmark error rows, in a's order: one column of
// a's errors or, when b is non-nil, a's and b's side by side (b aligned
// with a by index), with bars of the last column scaled to the worst of
// either.
func errTable(title string, a, b []validate.BenchError, labelA, labelB string) *Table {
	t := &Table{Title: title}
	if b == nil {
		t.Headers = []string{"bench", labelA, ""}
	} else {
		t.Headers = []string{"bench", labelA, labelB, ""}
	}
	maxV := 0.0
	for i, e := range a {
		if e.Error > maxV {
			maxV = e.Error
		}
		if b != nil && b[i].Error > maxV {
			maxV = b[i].Error
		}
	}
	for i, e := range a {
		if b == nil {
			t.AddRow(e.Name, Pct(e.Error), Bar(e.Error, maxV, 40))
		} else {
			t.AddRow(e.Name, Pct(e.Error), Pct(b[i].Error), Bar(b[i].Error, maxV, 40))
		}
	}
	return t
}

// SpecTable renders one model's CPI error rows (SpecErrors), in their
// order, with bars scaled to the worst.
func SpecTable(title string, rows []validate.BenchError) string {
	return errTable(title, rows, nil, "CPI error", "").Render()
}

// byName returns a copy of rows sorted by benchmark name.
func byName(rows []validate.BenchError) []validate.BenchError {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b validate.BenchError) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// Fig4 regenerates the before/after tuning micro-benchmark errors (A53).
func (c *Context) Fig4() (Experiment, error) {
	stages, err := c.Stages("a53")
	if err != nil {
		return Experiment{}, err
	}
	untuned, tuned := byName(stages[0].Errors), byName(stages[len(stages)-1].Errors)
	if !slices.EqualFunc(untuned, tuned, func(u, t validate.BenchError) bool { return u.Name == t.Name }) {
		return Experiment{}, fmt.Errorf("fig4: the untuned and tuned stages score different benchmarks")
	}
	t := errTable("Figure 4: A53 micro-benchmark CPI error, untuned vs tuned",
		untuned, tuned, "untuned", "tuned")
	worstU, _, err := validate.MaxError(stages[0].Errors)
	if err != nil {
		return Experiment{}, err
	}
	return Experiment{
		ID:    "fig4",
		Title: "Micro-benchmark CPI error before and after tuning (Cortex-A53 model)",
		Paper: "untuned ~50% average with a 5.6x outlier; tuned ~10% average",
		Measured: fmt.Sprintf("untuned %s average (worst %s %s); tuned %s average",
			Pct(stages[0].MeanError), worstU.Name, Pct(worstU.Error),
			Pct(stages[len(stages)-1].MeanError)),
		Body: t.Render(),
	}, nil
}

// SpecErrors scores configurations on the Table II workloads ms as one
// validate.Score grid, submitted to the shared cache, which deduplicates
// its pairs. It returns each configuration's rows, in workload order.
func (c *Context) SpecErrors(cfgs []sim.Config, ms []validate.Measurement) ([][]validate.BenchError, error) {
	rows, err := validate.Score(c.opts.Context, cfgs, ms, c.opts.Cache, c.opts.Parallelism, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]validate.BenchError, len(cfgs))
	for i := range out {
		out[i] = rows[i*len(ms) : (i+1)*len(ms)]
	}
	return out, nil
}

// MeanWorst is rows' mean and worst error (validate.MeanError, MaxError):
// 0, 0 for no rows.
func MeanWorst(rows []validate.BenchError) (mean, worst float64, err error) {
	if mean, err = validate.MeanError(rows); err != nil {
		return 0, 0, err
	}
	w, _, err := validate.MaxError(rows)
	return mean, w.Error, err
}

func (c *Context) specFigure(id, title, paperClaim, core string) (Experiment, error) {
	stages, err := c.Stages(core)
	if err != nil {
		return Experiment{}, err
	}
	ws, err := c.Spec(core)
	if err != nil {
		return Experiment{}, err
	}
	// The untuned public model on the same held-out workloads is the
	// context row (not in the paper's figure, but frames the improvement).
	rows, err := c.SpecErrors([]sim.Config{stages[0].Config, stages[len(stages)-1].Config}, ws)
	if err != nil {
		return Experiment{}, err
	}
	untunedMean, _, err := MeanWorst(rows[0])
	if err != nil {
		return Experiment{}, err
	}
	mean, worst, err := MeanWorst(rows[1])
	if err != nil {
		return Experiment{}, err
	}
	return Experiment{
		ID:    id,
		Title: title,
		Paper: paperClaim,
		Measured: fmt.Sprintf("average %s, worst %s (untuned model on the same workloads: %s)",
			Pct(mean), Pct(worst), Pct(untunedMean)),
		Body: SpecTable(title, rows[1]),
	}, nil
}

// Fig5 regenerates the tuned A53 SPEC errors.
func (c *Context) Fig5() (Experiment, error) {
	return c.specFigure("fig5",
		"Figure 5: SPEC CPI error, tuned in-order (A53) model",
		"7% average, at most 16%", "a53")
}

// Fig6 regenerates the tuned A72 SPEC errors.
func (c *Context) Fig6() (Experiment, error) {
	return c.specFigure("fig6",
		"Figure 6: SPEC CPI error, tuned out-of-order (A72) model",
		"15% average, outliers ~30% (prefetcher-dominated)", "a72")
}

func (c *Context) perturbFigure(id, title, paperClaim, core string) (Experiment, error) {
	tunedMean, res, err := c.worstNearOptimum(core)
	if err != nil {
		return Experiment{}, err
	}
	return Experiment{
		ID:    id,
		Title: title,
		Paper: paperClaim,
		Measured: fmt.Sprintf("tuned average %s -> worst one-step %s (%d parameters deviate)",
			Pct(tunedMean), Pct(res.MeanError), res.Deviations),
		Body: SpecTable(title, res.Errors),
	}, nil
}

// worstNearOptimum runs the perturbation search around core's tuned model
// on the Table II workloads. It returns the tuned model's mean error there
// and the search's result, whose rows carry the workloads' category.
func (c *Context) worstNearOptimum(core string) (float64, *perturb.Result, error) {
	stages, err := c.Stages(core)
	if err != nil {
		return 0, nil, err
	}
	tuned := stages[len(stages)-1].Config
	ms, err := c.Spec(core)
	if err != nil {
		return 0, nil, err
	}
	rows, err := c.SpecErrors([]sim.Config{tuned}, ms)
	if err != nil {
		return 0, nil, err
	}
	tunedMean, _, err := MeanWorst(rows[0])
	if err != nil {
		return 0, nil, err
	}
	ws := make([]perturb.Workload, len(ms))
	for i, m := range ms {
		ws[i] = perturb.Workload{Name: m.Bench.Name, Category: m.Bench.Category, Trace: m.Trace, Counters: m.Counters}
	}
	res, err := perturb.WorstNearOptimum(tuned, ws, perturb.Options{
		Restarts: c.opts.PerturbRestarts, Seed: c.opts.Seed,
		Cache: c.opts.Cache, Parallelism: c.opts.Parallelism,
		Context: c.opts.Context, Log: c.opts.Log,
	})
	if err != nil {
		return 0, nil, err
	}
	return tunedMean, res, nil
}

// Fig7 regenerates the near-optimum worst case for the A53 model.
func (c *Context) Fig7() (Experiment, error) {
	return c.perturbFigure("fig7",
		"Figure 7: close-to-optimum but inaccurate A53 model",
		"average error grows 7% -> 34%, individual up to 67%", "a53")
}

// Fig8 regenerates the near-optimum worst case for the A72 model.
func (c *Context) Fig8() (Experiment, error) {
	return c.perturbFigure("fig8",
		"Figure 8: close-to-optimum but inaccurate A72 model",
		"average error grows 15% -> ~45%", "a72")
}

// Staged regenerates the Sec. IV-B narrative: error per validation stage.
func (c *Context) Staged() (Experiment, error) {
	a53, err := c.Stages("a53")
	if err != nil {
		return Experiment{}, err
	}
	a72, err := c.Stages("a72")
	if err != nil {
		return Experiment{}, err
	}
	t := &Table{
		Title:   "Staged validation: mean micro-benchmark CPI error per stage",
		Headers: []string{"stage", "A53", "A72"},
	}
	for i := range a53 {
		t.AddRow(a53[i].Name, Pct(a53[i].MeanError), Pct(a72[i].MeanError))
	}
	return Experiment{
		ID:    "staged",
		Title: "Validation stages (Sec. IV-B)",
		Paper: "untuned ~50% -> first tuning ~33% -> fixes + retuning ~10% (A53)",
		Measured: fmt.Sprintf("A53: %s -> %s -> %s",
			Pct(a53[0].MeanError), Pct(a53[1].MeanError), Pct(a53[2].MeanError)),
		Body: t.Render(),
	}, nil
}

// Figure is one artifact of the paper's evaluation. Its ID is the scenario
// kind and name that select it and the ID it renders under; Description is
// the scenario registry's one line on it. Deps names the Context's memoized
// artifacts Run consumes: "stages:<core>" is Stages(core), "spec:<core>" is
// Spec(core) and "measure:<core>" is the core's board measuring the raw
// micro-benchmark suite.
type Figure struct {
	ID          string
	Description string
	Deps        []string
	Run         func(*Context) (Experiment, error)
}

// Paper is the paper's evaluation in paper order: Tables I–II, Figs. 2 and
// 4–8 and the staged-validation narrative.
var Paper = []Figure{
	{"table1", "Table I: the micro-benchmark suite and dynamic instruction counts", nil, (*Context).Table1},
	{"table2", "Table II: synthetic SPEC CPU2017 region workloads", nil, (*Context).Table2},
	{"fig2", "iterated-racing elimination dynamics on the A53", []string{"measure:a53"}, (*Context).Fig2},
	{"fig4", "micro-benchmark CPI error, untuned vs tuned (A53)", []string{"stages:a53"}, (*Context).Fig4},
	{"fig5", "SPEC CPI error of the tuned in-order model", []string{"stages:a53", "spec:a53"}, (*Context).Fig5},
	{"fig6", "SPEC CPI error of the tuned out-of-order model", []string{"stages:a72", "spec:a72"}, (*Context).Fig6},
	{"fig7", "close-to-optimum but inaccurate A53 model", []string{"stages:a53", "spec:a53"}, (*Context).Fig7},
	{"fig8", "close-to-optimum but inaccurate A72 model", []string{"stages:a72", "spec:a72"}, (*Context).Fig8},
	{"staged", "mean error per validation stage (Sec. IV-B)", []string{"stages:a53", "stages:a72"}, (*Context).Staged},
}

// All runs every experiment in paper order, one after another: the
// sequential reference a scenario run, which starts its units together, is
// tested against byte for byte. Experiments share the tuned models,
// workload measurements and the simulation cache, so later experiments are
// mostly cache hits; each Experiment records its own wall-clock time (which
// is reported, never rendered, keeping output byte-identical across
// parallelism settings).
func (c *Context) All() ([]Experiment, error) {
	var out []Experiment
	for _, f := range Paper {
		c.opts.Log("expt: running %s", f.ID)
		start := time.Now()
		e, err := f.Run(c)
		if err != nil {
			return nil, fmt.Errorf("expt %s: %w", f.ID, err)
		}
		e.Elapsed = time.Since(start)
		c.opts.Log("expt: %-6s done in %v", f.ID, e.Elapsed.Round(time.Millisecond))
		out = append(out, e)
	}
	return out, nil
}
