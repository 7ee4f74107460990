// Package validate orchestrates the paper's validation methodology
// (Fig. 1): measure the targeted micro-benchmarks on the reference board
// once, plug lmbench latency estimates into the model, race the unknown
// parameters with irace against the measurements, inspect the remaining
// per-component error, apply abstraction-error fixes (indirect predictor
// support, the decoder bug, array initialization, extra prefetcher
// options), and tune again.
package validate

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/lmbench"
	"racesim/internal/par"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
)

// Measurement pairs one tuning instance with its board counters.
type Measurement struct {
	Bench    ubench.Bench
	Trace    *trace.Trace
	Counters hw.Counters
}

// MeasureBench generates one micro-benchmark's trace — through memo, so a
// trace some other consumer already asked for is not emulated again (nil:
// generated) — and measures it on the board, which replays it at most
// once when it keeps its replays in a cache (hw.Board.WithCache). It is
// the one way to obtain a Measurement.
func MeasureBench(board *hw.Board, b ubench.Bench, opts ubench.Options, memo *tracememo.Memo) (Measurement, error) {
	tr, err := memo.Ubench(b, opts)
	if err != nil {
		return Measurement{}, err
	}
	c, err := board.Measure(tr)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Bench: b, Trace: tr, Counters: c}, nil
}

// MeasureSuiteWith measures every micro-benchmark on the board — the
// one-time data collection of methodology step 4 — with MeasureBench over
// a bounded worker pool. Trace generation and board measurement are both
// deterministic per benchmark, so the result is the same for any memo,
// board cache and parallelism, in suite order.
func MeasureSuiteWith(board *hw.Board, opts ubench.Options, memo *tracememo.Memo, parallelism int) ([]Measurement, error) {
	benches := ubench.Suite()
	out := make([]Measurement, len(benches))
	err := par.ForEach(len(benches), parallelism, func(i int) (err error) {
		out[i], err = MeasureBench(board, benches[i], opts, memo)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MeasureSuite is MeasureSuiteWith for a caller with nothing to share:
// every trace generated, one worker.
func MeasureSuite(board *hw.Board, opts ubench.Options) ([]Measurement, error) {
	return MeasureSuiteWith(board, opts, nil, 1)
}

// MeasureSuiteParallel is MeasureSuite over a bounded worker pool.
func MeasureSuiteParallel(board *hw.Board, opts ubench.Options, parallelism int) ([]Measurement, error) {
	return MeasureSuiteWith(board, opts, nil, parallelism)
}

// BenchError is a named per-benchmark error: one row of Score's grid.
type BenchError struct {
	Name     string
	Category ubench.Category
	Error    float64
}

// Score is the one way a model is scored against the board: it runs every
// configuration on every measurement's trace — one len(cfgs) x len(ms)
// grid through the optional shared cache, on at most parallelism workers
// — and scores each result with hw.Counters.CPIError into a row named
// after its measurement. Rows are configuration-major: pair (i, j) is at
// i*len(ms)+j, so rows[i*len(ms):(i+1)*len(ms)] are configuration i's
// errors in measurement order. The results go into rs, laid out like the
// rows, when it is not nil; a caller that reads only rows passes nil, and
// the grid is decoded into recycled storage and kept by nobody. A
// simulation that fails fails the grid with simcache.Cache.RunBatch's
// error, which names the configuration and the trace; counters with no
// relative error fail it with an error naming the measurement.
func Score(ctx context.Context, cfgs []sim.Config, ms []Measurement, cache *simcache.Cache, parallelism int, rs []core.Result) ([]BenchError, error) {
	trs := make([]*trace.Trace, len(ms))
	for j, m := range ms {
		trs[j] = m.Trace
	}
	var err error
	if rs == nil {
		scratch := unkept.Get().(*[]core.Result)
		defer unkept.Put(scratch)
		*scratch, err = cache.RunBatch(ctx, cfgs, trs, parallelism, *scratch)
		rs = *scratch
	} else if len(rs) != len(cfgs)*len(ms) {
		panic(fmt.Sprintf("validate: Score of a %d x %d grid into %d results", len(cfgs), len(ms), len(rs)))
	} else {
		_, err = cache.RunBatch(ctx, cfgs, trs, parallelism, rs)
	}
	if err != nil {
		return nil, err
	}
	rows := make([]BenchError, len(rs))
	for k := range rs {
		m := &ms[k%len(ms)]
		rows[k] = BenchError{Name: m.Bench.Name, Category: m.Bench.Category}
		if rows[k].Error, err = m.Counters.CPIError(&rs[k]); err != nil {
			return nil, fmt.Errorf("validate: %s: %w", m.Bench.Name, err)
		}
	}
	return rows, nil
}

// unkept recycles the storage of the grids whose results no caller
// keeps (Score with nil rs): a *[]core.Result, grown to the largest grid
// it has held.
var unkept = sync.Pool{New: func() any { return new([]core.Result) }}

// Errors evaluates cfg against every measurement.
func Errors(cfg sim.Config, ms []Measurement) ([]BenchError, error) {
	return ErrorsWith(cfg, ms, nil, 1)
}

// ErrorsWith is Errors through an optional shared simulation cache and a
// bounded worker pool: Score's 1 x len(ms) grid. Rows are in measurement
// order, identical to the sequential path.
func ErrorsWith(cfg sim.Config, ms []Measurement, cache *simcache.Cache, parallelism int) ([]BenchError, error) {
	// ErrorsWith keeps a signature without a context.
	return Score(context.TODO(), []sim.Config{cfg}, ms, cache, parallelism, nil)
}

// checkFinite rejects NaN/Inf per-benchmark errors. A non-finite error
// means a degenerate simulation (or measurement) upstream; averaging
// over it would silently poison every downstream summary and report, so
// it surfaces as an explicit error naming the benchmark instead.
func checkFinite(es []BenchError) error {
	for _, e := range es {
		if math.IsNaN(e.Error) || math.IsInf(e.Error, 0) {
			return fmt.Errorf("validate: non-finite error %v for benchmark %s (%s)", e.Error, e.Name, e.Category)
		}
	}
	return nil
}

// MeanError averages the per-benchmark errors (0 for an empty slice).
// Any NaN/Inf entry is an explicit error, never averaged over.
func MeanError(es []BenchError) (float64, error) {
	if err := checkFinite(es); err != nil {
		return 0, err
	}
	if len(es) == 0 {
		return 0, nil
	}
	s := 0.0
	for _, e := range es {
		s += e.Error
	}
	return s / float64(len(es)), nil
}

// MaxError returns the worst per-benchmark error; ok is false for an
// empty slice. Any NaN/Inf entry is an explicit error — under NaN the
// maximum is not even well-defined (every comparison is false).
func MaxError(es []BenchError) (worst BenchError, ok bool, err error) {
	if err := checkFinite(es); err != nil {
		return BenchError{}, false, err
	}
	if len(es) == 0 {
		return BenchError{}, false, nil
	}
	worst = es[0]
	for _, e := range es[1:] {
		if e.Error > worst.Error {
			worst = e
		}
	}
	return worst, true, nil
}

// CostWeights shapes the tuning cost function. The default is plain CPI
// error; adding branch weight implements the step 5 recommendation to
// include component metrics when chasing a specific model error.
type CostWeights struct {
	BranchMPKI float64
}

// Evaluator adapts the suite + board measurements to irace. When Cache is
// non-nil, simulation results are memoized across races, tuning rounds and
// (with disk persistence) whole processes: a configuration the survivor
// set already measured on an instance is never simulated again. Use it by
// pointer: it remembers the first simulation that failed (Err).
type Evaluator struct {
	Base    sim.Config
	Ms      []Measurement
	Weights CostWeights
	Cache   *simcache.Cache

	mu  sync.Mutex
	err error
}

// NumInstances implements irace.Evaluator.
func (e *Evaluator) NumInstances() int { return len(e.Ms) }

// Err returns the first simulation failure a Cost or CostBatch call met,
// or nil. Every candidate scored has passed sim.Apply's validation, so a
// failure says the simulator or its input is broken (a tape replay that
// desynchronized, a deferred trace that is not what was remembered, a
// trace that does not decode, board counters with no positive, finite
// CPI), not that a candidate is bad: the race went
// on over +Inf costs and its outcome must be discarded.
func (e *Evaluator) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// cost is the branch-MPKI term a candidate's cost adds to its CPI error
// (Score) on one measurement when Weights.BranchMPKI is set.
func (e *Evaluator) cost(res core.Result, m Measurement) float64 {
	den := m.Counters.BranchMPKI
	if den < 1 {
		den = 1
	}
	return e.Weights.BranchMPKI * math.Abs(res.Branch.MPKI(res.Instructions)-m.Counters.BranchMPKI) / den
}

// Cost implements irace.Evaluator: the error of the configuration obtained
// by overlaying the assignment on the base model, on one benchmark.
func (e *Evaluator) Cost(a irace.Assignment, instance int) float64 {
	return e.CostBatch([]irace.Assignment{a}, instance)[0]
}

// CostBatch implements irace.BatchEvaluator: the candidates that survive
// overlay validation are scored (Score) as one N x 1 grid, run one after
// the other (the tuner spreads its calls over its own workers). A
// candidate sim.Apply rejects costs +Inf and loses every race; a
// simulation that fails, or a measurement with no relative error
// (hw.Counters.CPIError), is remembered for Err.
func (e *Evaluator) CostBatch(as []irace.Assignment, instance int) []float64 {
	out := make([]float64, len(as)) // +Inf marks a rejected candidate
	cfgs := make([]sim.Config, 0, len(as))
	for i, a := range as {
		cfg, err := sim.Apply(e.Base, a)
		if err != nil {
			out[i] = math.Inf(1)
			continue
		}
		cfgs = append(cfgs, cfg)
	}
	ms := e.Ms[instance : instance+1]
	// irace.BatchEvaluator carries no context; the tuner checks its own
	// before each call.
	var rs []core.Result // read only by the branch-MPKI term
	if e.Weights.BranchMPKI > 0 {
		rs = make([]core.Result, len(cfgs))
	}
	rows, err := Score(context.TODO(), cfgs, ms, e.Cache, 1, rs)
	if err != nil {
		e.mu.Lock()
		if e.err == nil {
			e.err = err
		}
		e.mu.Unlock()
	}
	j := 0
	for i := range out {
		switch {
		case math.IsInf(out[i], 1):
			continue
		case err != nil:
			out[i] = math.Inf(1)
		default:
			out[i] = rows[j].Error
			if rs != nil {
				out[i] += e.cost(rs[j], ms[0])
			}
		}
		j++
	}
	return out
}

// TuneOptions configures one tuning round.
type TuneOptions struct {
	Budget  int
	Seed    int64
	Weights CostWeights
	// ExcludeParams removes parameters from the search space (e.g. the
	// indirect-predictor knobs before the model supports them).
	ExcludeParams map[string]bool
	// Cache, when non-nil, memoizes simulation results across the race
	// (and across callers sharing the same cache).
	Cache *simcache.Cache
	// Parallelism bounds concurrent simulations (<=0: GOMAXPROCS).
	Parallelism int
	// Context, when non-nil, cancels the tuning round: the tuner makes no
	// further evaluator call once it is cancelled (irace.Options.Context).
	Context context.Context
	Log     func(format string, args ...any)
}

// TuneResult is the outcome of one tuning round.
type TuneResult struct {
	Tuned  sim.Config
	Irace  *irace.Result
	Errors []BenchError
}

// Tune runs one irace round against the measurements and returns the tuned
// configuration (methodology step 4).
func Tune(base sim.Config, ms []Measurement, opt TuneOptions) (*TuneResult, error) {
	space, err := sim.Space(base.Kind, opt.ExcludeParams)
	if err != nil {
		return nil, err
	}
	eval := &Evaluator{Base: base, Ms: ms, Weights: opt.Weights, Cache: opt.Cache}
	tuner, err := irace.New(space, eval, irace.Options{
		Budget:      opt.Budget,
		Seed:        opt.Seed,
		Parallelism: opt.Parallelism,
		Context:     opt.Context,
		Log:         opt.Log,
	})
	if err != nil {
		return nil, err
	}
	res, err := tuner.Run()
	if simErr := eval.Err(); simErr != nil {
		// The race scored the failed simulations +Inf and went on; what it
		// returned was tuned on a broken simulator or input.
		return nil, simErr
	}
	if err != nil {
		return nil, err
	}
	tuned, err := sim.Apply(base, res.Best)
	if err != nil {
		return nil, err
	}
	tuned.Name = base.Name + "-tuned"
	errs, err := ErrorsWith(tuned, ms, opt.Cache, opt.Parallelism)
	if err != nil {
		return nil, err
	}
	return &TuneResult{Tuned: tuned, Irace: res, Errors: errs}, nil
}

// SeedLatencies plugs lmbench estimates into a base configuration
// (methodology step 2), snapping each onto the listed values of its
// tunable (sim.Params), so the tuner and the perturbation search can step
// from it. memo and parallelism are lmbench.Estimate's.
func SeedLatencies(base sim.Config, board *hw.Board, memo *tracememo.Memo, parallelism int) (sim.Config, error) {
	l1, err1 := candidates(base.Kind, "l1d.hit_latency")
	l2, err2 := candidates(base.Kind, "l2.hit_latency")
	mem, err3 := candidates(base.Kind, "dram.latency")
	if err := cmp.Or(err1, err2, err3); err != nil {
		return sim.Config{}, err
	}
	est, err := lmbench.Estimate(board, memo, parallelism)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := base
	cfg.Mem.L1D.HitLatency = lmbench.Snap(est.L1Cycles, l1)
	// The L2 chase observes L1-miss + L2-hit time; subtract the L1 part.
	cfg.Mem.L2.HitLatency = lmbench.Snap(est.L2Cycles-cfg.Mem.L1D.HitLatency, l2)
	cfg.Mem.DRAM.LatencyCycles = lmbench.Snap(est.MemCycles, mem)
	return cfg, nil
}

// candidates returns the listed values of kind's integer tunable name.
func candidates(kind core.Kind, name string) ([]int, error) {
	for _, d := range sim.Params(kind) {
		if d.Name == name {
			out := make([]int, len(d.Values))
			for i, v := range d.Values {
				var err error
				if out[i], err = strconv.Atoi(v); err != nil {
					return nil, fmt.Errorf("validate: %s: %w", name, err)
				}
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("validate: %s is no tunable of %s cores", name, kind)
}
