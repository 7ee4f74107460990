package expt

import (
	"context"
	"runtime"

	"racesim/internal/core"
	"racesim/internal/hw"
	"racesim/internal/par"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
)

// Runner schedules simulation units on a bounded worker pool and memoizes
// results through an optional shared simcache.Cache. Results always come
// back in submission order, so output built from them is byte-identical
// regardless of parallelism or completion order.
type Runner struct {
	cache *simcache.Cache
	par   int
	ctx   context.Context // nil: never cancelled
}

// NewRunner builds a runner. cache may be nil (no memoization);
// parallelism <= 0 selects GOMAXPROCS.
func NewRunner(cache *simcache.Cache, parallelism int) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{cache: cache, par: parallelism}
}

// WithContext returns a copy of the runner whose pool checks ctx before
// dispatching each unit, so cancelling ctx stops a batch within one
// simulation. A nil ctx returns the receiver unchanged.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	if ctx == nil {
		return r
	}
	r2 := *r
	r2.ctx = ctx
	return &r2
}

// Cache exposes the shared result cache (possibly nil).
func (r *Runner) Cache() *simcache.Cache { return r.cache }

// Parallelism is the worker-pool width.
func (r *Runner) Parallelism() int { return r.par }

// forEach runs fn(0..n-1) on the worker pool and returns the error of the
// lowest-indexed failure (deterministic regardless of completion order).
// Under a context (WithContext) cancellation stops dispatch and reports
// ctx.Err().
func (r *Runner) forEach(n int, fn func(i int) error) error {
	return par.ForEachCtx(r.ctx, n, r.par, fn)
}

// RunAll simulates every (cfgs[i], trs[j]) pair through the shared cache,
// in parallel up to the pool width and under the runner's context, and
// returns the results configuration-major (simcache.Cache.RunBatch).
func (r *Runner) RunAll(cfgs []sim.Config, trs []*trace.Trace) ([]core.Result, error) {
	return r.cache.RunBatch(r.ctx, cfgs, trs, r.par)
}

// MeasureAll runs every trace on the board concurrently and returns the
// counters aligned with the input. Board measurements are deterministic
// (the pseudo-noise is a pure function of the trace identity), so the
// parallel path returns exactly what sequential measurement would.
func (r *Runner) MeasureAll(board *hw.Board, trs []*trace.Trace) ([]hw.Counters, error) {
	out := make([]hw.Counters, len(trs))
	err := r.forEach(len(trs), func(i int) error {
		c, err := board.Measure(trs[i])
		if err != nil {
			return err
		}
		out[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
