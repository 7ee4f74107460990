package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"racesim/internal/expt"
	"racesim/internal/par"
	"racesim/internal/simcache"
)

// RunOptions configures one sweep execution.
type RunOptions struct {
	// Expt sizes the underlying experiment context (budgets, seeds,
	// scale, parallelism, cache, cancellation context, log).
	Expt expt.Options
	// CachePath, when set, is the simcache snapshot backing the sweep and
	// what picks an interrupted sweep up again (simcache.Open): loaded (if
	// present) before the units start, saved on every way out of Run —
	// finished, a failed unit, a cancelled context — and when a unit
	// finishes once saveInterval has passed since the last save. The same
	// sweep re-run against the same file simulates only what the file does
	// not hold.
	CachePath string
	// Log receives progress lines (never rendered output), and with
	// CachePath the snapshot's warnings and notes. The units of a run call
	// it, and Expt.Log, from their own goroutines, possibly at once.
	Log func(format string, args ...any)
}

// saveInterval is simcache.SaveInterval: a run saves its snapshot when a
// unit finishes once saveInterval has passed since the last save, while
// the other units go on. A variable so a test can shorten it.
var saveInterval = simcache.SaveInterval

// UnitResult pairs a unit with its rendered experiment.
type UnitResult struct {
	Unit       Unit
	Experiment expt.Experiment
}

// Run executes the units against one shared experiment context, all at once
// (RunSaving), and returns their results in expansion order. Rendered
// output depends only on the unit list and the experiment options — never
// on parallelism, cache warmth, which unit finished first or where an
// earlier run of the same sweep stopped. With CachePath set, a run that
// fails after simulating still saves, and says so in the error it returns.
func Run(units []Unit, opts RunOptions) ([]UnitResult, error) {
	if opts.Expt.Cache == nil && opts.CachePath != "" {
		opts.Expt.Cache = simcache.New()
	}
	log := func(format string, args ...any) {
		if opts.Log != nil {
			opts.Log("scenario: "+format, args...)
		}
	}
	snap, err := simcache.Open(opts.Expt.Cache, opts.CachePath, log, log)
	if err != nil {
		return nil, err
	}
	results, err := RunSaving(units, opts, snap)
	if err = snap.Close(err); err != nil {
		return nil, err
	}
	return results, nil
}

// RunSaving is Run for a caller that opens and closes the sweep's snapshot
// itself (nil: none). CachePath is not looked at.
//
// The units run as a dependency graph, not a list: all of them start at
// once on par.ForEachCtx, and a unit that needs an artifact another unit is
// building (expt.Context.Stages) waits for that one alone. Each unit's own
// batches run on the experiment options' Parallelism; at a parallelism of
// 1 the units also run one at a time, in order — the sequential reference.
// When a unit finishes once saveInterval has passed since the last save,
// the caller's goroutine saves snap, beside the units still running.
//
// A unit that fails cancels the others, and the error returned is the
// lowest-indexed failing unit's own, never a cancellation that failure
// caused. A unit that panics stops the others the same way, and the panic
// is raised again on the caller's goroutine once they have returned.
//
// Each result's Experiment.Elapsed is the unit's share of the run's wall
// time, in expansion order (shares); the progress line "done in" gives its
// own duration.
func RunSaving(units []Unit, opts RunOptions, snap *simcache.Snapshot) ([]UnitResult, error) {
	log := opts.Log
	if log == nil {
		log = func(string, ...any) {}
	}
	parent := opts.Expt.Context
	if parent == nil {
		parent = context.Background()
	}
	stop, cancel := context.WithCancel(parent)
	defer cancel()
	runCtx := runContext{Context: parent, stop: stop}
	opts.Expt.Context = runCtx
	ctx, err := expt.NewContext(opts.Expt)
	if err != nil {
		return nil, err
	}

	if len(units) > 0 {
		if arts := Artifacts(units); len(arts) > 0 {
			log("scenario: %d units, shared artifacts: %s", len(units), strings.Join(arts, " "))
		} else {
			log("scenario: %d units", len(units))
		}
	}
	width := len(units)
	if ctx.Options().Parallelism == 1 {
		width = 1
	}
	start := time.Now()
	results := make([]UnitResult, len(units))
	finished := make([]time.Time, len(units))
	panics := make([]any, len(units))
	unitDone := make(chan struct{}, len(units)) // one send per finished unit: never blocks
	ran := make(chan error, 1)
	go func() {
		ran <- par.ForEachCtx(runCtx, len(units), width, func(k int) (err error) {
			u := units[k]
			defer func() {
				if p := recover(); p != nil {
					panics[k] = p
					err = fmt.Errorf("scenario %s: panic: %v", u.ID, p)
				}
				if err != nil {
					cancel()
				}
			}()
			log("scenario: [%d/%d] %s", k+1, len(units), u.ID)
			began := time.Now()
			e, err := u.Run(ctx)
			if err != nil {
				return fmt.Errorf("scenario %s: %w", u.ID, err)
			}
			finished[k] = time.Now()
			log("scenario: [%d/%d] %s done in %v", k+1, len(units), u.ID, finished[k].Sub(began).Round(time.Millisecond))
			results[k] = UnitResult{Unit: u, Experiment: e}
			unitDone <- struct{}{}
			return nil
		})
	}()
	lastSave := start
	for running := true; running; {
		select {
		case <-unitDone:
			if time.Since(lastSave) >= saveInterval {
				// Not fatal: the save on the way out tries again and reports.
				if err := snap.Save(); err != nil {
					log("scenario: %v", err)
				}
				lastSave = time.Now()
			}
		case err = <-ran:
			running = false
		}
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if err != nil {
		return nil, err
	}
	for k, d := range shares(start, finished) {
		results[k].Experiment.Elapsed = d
	}
	return results, nil
}

// runContext is a run's context: the caller's, and cancelled as well when
// a unit fails. Err asks the caller's context first, so a caller's context
// that reports its end through Err before it closes Done ends the run at
// the same point it would end a unit run alone.
type runContext struct {
	context.Context                 // the caller's
	stop            context.Context // derived from it, cancelled by a failing unit
}

func (c runContext) Done() <-chan struct{} { return c.stop.Done() }

func (c runContext) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	return c.stop.Err()
}

// shares divides the wall time from start to the last of the finish times
// among the units, in expansion order: unit k's share runs from the later
// of start and every earlier unit's finish to its own finish, and is 0 if
// it finished before that. The shares add up to the wall time, and when
// each unit starts as the one before it finishes, each share is the unit's
// own duration.
func shares(start time.Time, finished []time.Time) []time.Duration {
	out := make([]time.Duration, len(finished))
	at := start
	for k, t := range finished {
		if t.After(at) {
			out[k], at = t.Sub(at), t
		}
	}
	return out
}

// RenderAll concatenates the rendered experiments in unit order — the
// sweep's artifact. Concatenating the RenderAll outputs of consecutive
// pieces of one unit list reproduces the whole list's artifact byte for
// byte, which is how the distributed sweep assembles its output.
func RenderAll(results []UnitResult) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Experiment.Render())
		b.WriteByte('\n')
	}
	return b.String()
}
