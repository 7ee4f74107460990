package scenario

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/validate"
)

// Runtime is what a unit runs against: the shared experiment context
// (tuned models, boards, worker pool, trace memo, simulation cache).
type Runtime struct {
	Ctx *expt.Context
}

// board returns the reference board for a validated core name.
func (rt *Runtime) board(core string) *hw.Board {
	if core == "a72" {
		return rt.Ctx.Platform().A72
	}
	return rt.Ctx.Platform().A53
}

// public returns the untuned public model preset for a core.
func (rt *Runtime) public(core string) sim.Config {
	if core == "a72" {
		return sim.PublicA72()
	}
	return sim.PublicA53()
}

// stages runs (or reuses) the full validation pipeline for a core.
func (rt *Runtime) stages(core string) ([]validate.StageResult, error) {
	if core == "a72" {
		return rt.Ctx.StagesA72()
	}
	return rt.Ctx.StagesA53()
}

// noisyBoard rebuilds a core's board over the same hidden ground truth
// with a different measurement-noise amplitude. The level is part of the
// board name, so its deterministic pseudo-noise stream differs per level,
// as re-measuring on a different physical board would. Same hidden
// configuration, same cache: the re-noised board shares the reference
// board's replays and only the noise differs.
func (rt *Runtime) noisyBoard(core string, level float64) (*hw.Board, error) {
	base := rt.board(core)
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
	// what picks an interrupted sweep up again: loaded (if present) before
	// the first unit, saved on every way out of Run — finished, a failed
	// unit, a cancelled context — and at a unit boundary once saveInterval
	// has passed since the last save. The same sweep re-run against the
	// same file simulates only what the file does not hold.
	CachePath string
	// Log receives progress lines (never rendered output).
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
// warmth or where an earlier run of the same sweep stopped. A run that
// fails after simulating still saves, and says so in the error it returns.
func Run(units []Unit, opts RunOptions) ([]UnitResult, error) {
	log := opts.Log
	if log == nil {
		log = func(string, ...any) {}
	}
	eo := opts.Expt
	if eo.Cache == nil && opts.CachePath != "" {
		eo.Cache = simcache.New()
	}
	if opts.CachePath != "" {
		n, rejected, err := eo.Cache.LoadChecked(opts.CachePath)
		var stale *simcache.StaleFormatError
		switch {
		case errors.As(err, &stale):
			log("scenario: ignoring snapshot %s (format %d); starting cold", stale.Path, stale.Format)
		case err != nil:
			return nil, err
		default:
			if rejected > 0 {
				log("scenario: %s: rejected %d corrupted cache entries", opts.CachePath, rejected)
			}
			log("scenario: cache: loaded %d entries from %s", n, opts.CachePath)
		}
	}
	ctx, err := expt.NewContext(eo)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{Ctx: ctx}
	cache := ctx.Runner().Cache()

	if len(units) > 0 {
		if arts := Artifacts(units); len(arts) > 0 {
			log("scenario: %d units, shared artifacts: %s", len(units), strings.Join(arts, " "))
		} else {
			log("scenario: %d units", len(units))
		}
	}
	// Saves happen between units and after the load above, so never beside
	// running simulations and never from an emptier cache than the file's.
	// One that would write what the last one wrote is skipped (SaveFile
	// itself skips one that would write what was loaded).
	var saved *simcache.Stats
	lastSave := time.Now()
	save := func() error {
		now := cache.Stats()
		if saved != nil && saved.Entries == now.Entries && saved.Misses == now.Misses {
			return nil
		}
		if err := cache.SaveFile(opts.CachePath); err != nil {
			return fmt.Errorf("scenario: save %s: %w", opts.CachePath, err)
		}
		saved, lastSave = &now, time.Now()
		return nil
	}
	results := make([]UnitResult, 0, len(units))
	for k, u := range units {
		// Cancellation boundary: a cancelled sweep stops before the next
		// unit (and the runner stops its in-flight batch via the same
		// context).
		if cctx := opts.Expt.Context; cctx != nil && cctx.Err() != nil {
			err = cctx.Err()
			break
		}
		if opts.CachePath != "" && time.Since(lastSave) >= saveInterval {
			// Not fatal: the exit-path save tries again and reports.
			if err := save(); err != nil {
				log("%v", err)
			}
		}
		log("scenario: [%d/%d] %s", k+1, len(units), u.ID)
		start := time.Now()
		var e expt.Experiment
		if e, err = u.Run(rt); err != nil {
			err = fmt.Errorf("scenario %s: %w", u.ID, err)
			break
		}
		e.Elapsed = time.Since(start)
		log("scenario: [%d/%d] %s done in %v", k+1, len(units), u.ID, e.Elapsed.Round(time.Millisecond))
		results = append(results, UnitResult{Unit: u, Experiment: e})
	}
	if opts.CachePath != "" {
		if saveErr := save(); saveErr != nil {
			err = errors.Join(err, saveErr)
		} else if err != nil {
			// In the error, not the log: an interrupted quiet run still
			// tells what it kept.
			err = fmt.Errorf("%w (saved %d cache entries to %s)", err, cache.Stats().Entries, opts.CachePath)
		} else {
			log("scenario: cache: saved %d entries to %s", cache.Stats().Entries, opts.CachePath)
		}
	}
	if err != nil {
		return nil, err
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
