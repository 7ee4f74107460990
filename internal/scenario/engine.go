package scenario

import (
	"fmt"
	"strings"
	"time"

	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/simcache"
)

// Runtime is what a unit runs against: the shared experiment context
// (tuned models, boards, worker pool, trace memo, simulation cache).
type Runtime struct {
	Ctx *expt.Context
}

// noisyBoard rebuilds a board over the same hidden ground truth with a
// different measurement-noise amplitude. The level is part of the board
// name, so its deterministic pseudo-noise stream differs per level, as
// re-measuring on a different physical board would. Same hidden
// configuration, same cache: the re-noised board shares the reference
// board's replays and only the noise differs.
func (rt *Runtime) noisyBoard(base *hw.Board, level float64) (*hw.Board, error) {
	b, err := hw.NewBoard(fmt.Sprintf("%s-noise-%g", base.Name, level), base.FreqGHz, base.TrueConfig(), level)
	if err != nil {
		return nil, err
	}
	return b.WithCache(rt.Ctx.Runner().Cache()), nil
}

// RunOptions configures one sweep execution.
type RunOptions struct {
	// Expt sizes the underlying experiment context (budgets, seeds,
	// scale, parallelism, cache, cancellation context, log).
	Expt expt.Options
	// CachePath, when set, is the simcache snapshot backing the sweep and
	// what picks an interrupted sweep up again (simcache.Open): loaded (if
	// present) before the first unit, saved on every way out of Run —
	// finished, a failed unit, a cancelled context — and at a unit
	// boundary once saveInterval has passed since the last save. The same
	// sweep re-run against the same file simulates only what the file does
	// not hold.
	CachePath string
	// Log receives progress lines (never rendered output), and with
	// CachePath the snapshot's warnings and notes.
	Log func(format string, args ...any)
}

// saveInterval bounds what a kill -9 can lose to the units begun in the
// last saveInterval plus the one in progress. A variable so a test can
// shorten it.
var saveInterval = 10 * time.Second

// UnitResult pairs a unit with its rendered experiment.
type UnitResult struct {
	Unit       Unit
	Experiment expt.Experiment
}

// Run executes the units in order against one shared runtime and returns
// their results in the same order. Rendered output depends only on the
// unit list and the experiment options — never on parallelism, cache
// warmth or where an earlier run of the same sweep stopped. With CachePath
// set, a run that fails after simulating still saves, and says so in the
// error it returns.
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
// itself (nil: none). CachePath is not looked at; snap is saved at a unit
// boundary once saveInterval has passed since the last save.
func RunSaving(units []Unit, opts RunOptions, snap *simcache.Snapshot) ([]UnitResult, error) {
	log := opts.Log
	if log == nil {
		log = func(string, ...any) {}
	}
	ctx, err := expt.NewContext(opts.Expt)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{Ctx: ctx}

	if len(units) > 0 {
		if arts := Artifacts(units); len(arts) > 0 {
			log("scenario: %d units, shared artifacts: %s", len(units), strings.Join(arts, " "))
		} else {
			log("scenario: %d units", len(units))
		}
	}
	// Saves happen between units, so never beside running simulations.
	lastSave := time.Now()
	results := make([]UnitResult, 0, len(units))
	for k, u := range units {
		// Cancellation boundary: a cancelled sweep stops before the next
		// unit (and the runner stops its in-flight batch via the same
		// context).
		if cctx := opts.Expt.Context; cctx != nil && cctx.Err() != nil {
			return nil, cctx.Err()
		}
		if time.Since(lastSave) >= saveInterval {
			// Not fatal: the save on the way out tries again and reports.
			if err := snap.Save(); err != nil {
				log("scenario: %v", err)
			}
			lastSave = time.Now()
		}
		log("scenario: [%d/%d] %s", k+1, len(units), u.ID)
		start := time.Now()
		e, err := u.Run(rt)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", u.ID, err)
		}
		e.Elapsed = time.Since(start)
		log("scenario: [%d/%d] %s done in %v", k+1, len(units), u.ID, e.Elapsed.Round(time.Millisecond))
		results = append(results, UnitResult{Unit: u, Experiment: e})
	}
	return results, nil
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
