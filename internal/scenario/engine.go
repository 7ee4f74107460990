package scenario

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
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
	// scale, parallelism, cache, log).
	Expt expt.Options
	// CachePath, when set, is the simcache snapshot backing the sweep:
	// loaded (if present) before the first unit and saved after the
	// last, so repeated sweeps are warm across processes.
	CachePath string
	// Checkpoint additionally saves the cache after *every* unit and on
	// a periodic background timer, making CachePath a resume checkpoint:
	// a sweep killed mid-run and restarted with the same CachePath
	// replays completed work at ~100% cache hits and continues the
	// interrupted unit from its last saved simulations.
	Checkpoint bool
	// CheckpointEvery is the background checkpoint period (default 10s);
	// only meaningful with Checkpoint. Unit boundaries always checkpoint
	// regardless.
	CheckpointEvery time.Duration
	// Log receives progress lines (never rendered output).
	Log func(format string, args ...any)
}

// UnitResult pairs a unit with its rendered experiment.
type UnitResult struct {
	Unit       Unit
	Experiment expt.Experiment
}

// Run executes the units in order against one shared runtime and returns
// their results in the same order. Rendered output depends only on the
// unit list and the experiment options — never on parallelism, cache
// warmth or checkpointing — which is what makes shard merging and resume
// byte-exact.
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

	// Background checkpointing bounds how much simulation work a kill can
	// lose to one period, even inside a long unit (a validation pipeline
	// is minutes of tuning races behind a single unit), and a polite
	// interrupt (Ctrl-C, SIGTERM from a fleet scheduler) flushes a final
	// checkpoint before exiting, losing nothing completed. Both are
	// installed only here, *after* the load: a handler armed earlier
	// could overwrite a populated checkpoint with an empty cache.
	// SaveFile is atomic (temp file + rename) and the cache is
	// concurrency-safe, so the timer, the signal flush and unit-boundary
	// saves may race harmlessly.
	if opts.Checkpoint && opts.CachePath != "" {
		every := opts.CheckpointEvery
		if every <= 0 {
			every = 10 * time.Second
		}
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := cache.SaveFile(opts.CachePath); err != nil {
						log("scenario: background checkpoint %s: %v", opts.CachePath, err)
					}
				case <-sigCh:
					if err := cache.SaveFile(opts.CachePath); err != nil {
						fmt.Fprintln(os.Stderr, "scenario: interrupt checkpoint:", err)
					} else {
						fmt.Fprintf(os.Stderr, "scenario: interrupted; checkpointed %d entries to %s\n",
							cache.Stats().Entries, opts.CachePath)
					}
					os.Exit(130)
				case <-stop:
					return
				}
			}
		}()
		defer func() {
			signal.Stop(sigCh)
			close(stop)
			<-done
		}()
	}

	if len(units) > 0 {
		if arts := Artifacts(units); len(arts) > 0 {
			log("scenario: %d units, shared artifacts: %s", len(units), strings.Join(arts, " "))
		} else {
			log("scenario: %d units", len(units))
		}
	}
	results := make([]UnitResult, 0, len(units))
	for k, u := range units {
		// Cancellation boundary: a cancelled sweep stops before the next
		// unit (and the runner stops its in-flight batch via the same
		// context), leaving completed units checkpointed as usual.
		if cctx := opts.Expt.Context; cctx != nil && cctx.Err() != nil {
			return nil, cctx.Err()
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
		if opts.Checkpoint && opts.CachePath != "" {
			if err := cache.SaveFile(opts.CachePath); err != nil {
				return nil, fmt.Errorf("scenario: checkpoint %s: %w", opts.CachePath, err)
			}
			log("scenario: checkpoint %s (%d entries)", opts.CachePath, cache.Stats().Entries)
		}
	}
	if opts.CachePath != "" && !opts.Checkpoint {
		if err := cache.SaveFile(opts.CachePath); err != nil {
			return nil, fmt.Errorf("scenario: save %s: %w", opts.CachePath, err)
		}
		log("scenario: cache: saved %d entries to %s", cache.Stats().Entries, opts.CachePath)
	}
	return results, nil
}

// RenderAll concatenates the rendered experiments in unit order — the
// sweep's artifact. Concatenating the RenderAll outputs of shards 1..n of
// the same unit list reproduces the unsharded artifact byte for byte.
func RenderAll(results []UnitResult) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Experiment.Render())
		b.WriteByte('\n')
	}
	return b.String()
}
