// Package par is the one bounded-worker-pool helper shared by every layer
// that fans independent simulation work out across cores (the experiment
// runner, the validation suite, the perturbation study). Keeping the pool
// in one place keeps its semantics — deterministic error selection,
// bounded concurrency, fail-fast dispatch, no result reordering —
// identical everywhere.
package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) with at most parallelism concurrent calls
// (<=1 means sequential) and returns the lowest-indexed error, so the
// reported failure is deterministic regardless of completion order.
//
// A call starts min(n, parallelism) workers, here and nowhere else, and
// each pulls the next index from one shared cursor until none is left: no
// goroutine, and so no fresh stack to grow, per item. The caller only
// waits. (Having it work too saves a goroutine per call and costs more: the
// one it starts then sits in the run-next slot of the caller's busy
// processor, which an idle processor may steal from only after a sleep —
// docs/performance.md, "What a hit costs".)
//
// Dispatch is fail-fast: once any call has returned an error, no further
// indices are started (calls already in flight run to completion). That
// cannot change which error is reported: the cursor hands indices out in
// ascending order and a worker that has taken one always runs it, so by
// the time index i fails every index below i has been taken and will
// finish, and the lowest-indexed error among the calls made is the same as
// over all of them.
func ForEach(n, parallelism int, fn func(i int) error) error {
	return ForEachCtx(nil, n, parallelism, fn)
}

// ForEachCtx is ForEach with cancellation: a cancelled context stops
// dispatch (in-flight calls still run to completion) and, when no call
// failed on its own, reports ctx.Err(). Cancellation is never recorded as
// the error of an index — neither the one the pool met it at nor one whose
// fn returned it — so a context error cannot mask a real failure: the
// lowest-indexed fn error wins whichever index saw the context first, and
// callers see the same deterministic error ForEach promises, plus
// context.Canceled / DeadlineExceeded when cancellation is the only thing
// that went wrong. A nil ctx is never cancelled.
func ForEachCtx(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n && ctxErr(ctx) == nil; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return ctxErr(ctx)
	}
	var (
		next   atomic.Int64 // the next index to hand out
		failed atomic.Bool
		mu     sync.Mutex // guards lowest, err
		lowest = n
		err    error
		wg     sync.WaitGroup
	)
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			// A unit in flight (or finished) that has failed ends the loop:
			// running the remaining thousands of simulations would only burn
			// CPU on results the caller will discard.
			for !failed.Load() && ctxErr(ctx) == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if e := fn(i); e != nil {
					failed.Store(true)
					if errors.Is(e, ctxErr(ctx)) {
						return // cancellation seen from inside fn: reported below, after any real failure
					}
					mu.Lock()
					if i < lowest {
						lowest, err = i, e
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return err
	}
	return ctxErr(ctx)
}

// ctxErr is ctx.Err() for a context that may be nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
