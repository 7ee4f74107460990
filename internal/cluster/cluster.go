// Package cluster is the distributed sweep fabric: a coordinator that
// takes a scenario selection, expands it to the deterministic unit list
// (internal/scenario), and dispatches units across a pool of remote
// `racesim serve` workers over the /v1/jobs HTTP API.
//
// The design goals, in order:
//
//   - byte-exactness: every unit renders on exactly one worker and the
//     coordinator concatenates artifacts in global expansion order, so
//     the assembled output is byte-identical to a single-process
//     `racesim experiments` run regardless of worker count, scheduling
//     order, retries or mid-run worker loss;
//   - bounded in-flight windows: each worker holds at most window (2)
//     units at once (submitted or queued on its own bounded job queue), so
//     a slow worker backs pressure up to the coordinator instead of
//     hoarding the tail of the sweep;
//   - dependency-artifact affinity: units declare the shared preparation
//     artifacts they consume (e.g. "stages:a53"); the scheduler prefers
//     placing a unit on a worker that already built its artifacts, so
//     the worker's warm in-process cache is reused instead of re-derived;
//   - failure isolation, under one failure policy (policy below): a unit
//     that fails on a worker is retried after engine.Backoff on another
//     worker (bounded by Retries); a worker with deadAfter consecutive
//     failures is quarantined — a circuit breaker that stops dispatch
//     while background health probes decide between re-admission on
//     probation and dropping it. The sweep only fails when a unit
//     exhausts its attempts or no live workers remain;
//   - cache federation: the coordinator pre-seeds every worker with what
//     it lacks of its snapshot (CachePath) before the round, collects each worker's
//     checksummed snapshot delta, merges them last-writer-wins into one
//     snapshot and persists it — so a re-run of an overlapping selection
//     is warm cluster-wide, not just per-process;
//   - crash resumability through that snapshot alone: the coordinator
//     collects and saves while the round runs (simcache.SaveInterval
//     apart) and on every way out — finished, failed or interrupted — so a
//     sweep re-run with the same CachePath re-simulates only what the file
//     does not hold, and finished units re-render from cache hits.
package cluster

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"racesim/internal/engine"
	"racesim/internal/scenario"
	"racesim/internal/simcache"
	"racesim/internal/telemetry"
)

// Options configures one coordinated sweep.
type Options struct {
	// Workers are the base URLs of the serve workers (e.g.
	// "http://10.0.0.2:8080"). At least one must be reachable.
	Workers []string
	// Retries bounds how many times one unit is reassigned after a
	// failure before the sweep fails (default 3).
	Retries int
	// CachePath, when set, federates the simulation cache and is what
	// picks an interrupted sweep up again: loaded and pre-seeded to every
	// worker before the round; worker deltas merged and saved back when a
	// unit finishes once simcache.SaveInterval has passed since the last
	// save, and on every way out of the round.
	CachePath string

	// Trace, when valid, parents one "unit" span per completed unit
	// under it; each dispatch attempt propagates a fresh span context to
	// its worker over X-Racesim-Trace, and the worker's own job/engine
	// spans come back inside the job result. Unit spans are recorded only
	// for the attempt that succeeded, so the flight recorder covers every
	// unit exactly once regardless of retries.
	Trace telemetry.SpanContext
	// Recorder receives the sweep's spans (the flight recorder); nil
	// discards them. Tracing requires both Trace and Recorder.
	Recorder *telemetry.Recorder

	// Scenario is the selection (comma-separated names/globs, "all" =
	// paper set) — the same selector `racesim experiments -scenario`
	// takes.
	Scenario string
	// Experiment options forwarded verbatim to every worker job; zero
	// values select the engine's documented defaults.
	Scale            float64
	Events           int
	Budget1, Budget2 int
	Seed             int64

	// Log receives coordinator progress lines; nil discards them.
	Log func(format string, args ...any)

	// policy, when non-nil, replaces sweepPolicy (tests only).
	policy *policy
}

// closeTimeout bounds what an interrupted sweep still asks of its workers
// on the way out: its delta collection, and cancelling the jobs it leaves.
const closeTimeout = 5 * time.Second

// window bounds in-flight units per worker: one running, one queued behind
// it so the worker never idles between units.
const window = 2

// policy is the sweep's failure policy: how long the coordinator waits
// before each retry, and when a worker leaves the round.
//
//   - The startup health check and the pre-seed are tried startTries times,
//     delay(0) and delay(1) apart.
//   - A unit's nth failure redispatches it after delay(n-1), preferring
//     another worker, up to Options.Retries times.
//   - deadAfter consecutive unit failures quarantine a worker: it gets no
//     units while health probes decide, the kth sent delay(k) after the
//     circuit opened or the probe before it failed. A passing probe
//     re-admits it on probation: one more failure re-quarantines it.
//
// A worker unreachable at start, failing the pre-seed or out of its
// probeLimit probes leaves the round (drop in Run): it gets no more units
// and Report.Dead lists it. With a cache file, a unit that finishes once
// checkpoint has passed since the last save collects and saves.
type policy struct {
	deadAfter  int
	probeLimit int
	delay      func(attempt int) time.Duration
	checkpoint time.Duration
}

// sweepPolicy is the policy of every sweep.
var sweepPolicy = policy{deadAfter: 2, probeLimit: 5, delay: engine.Backoff, checkpoint: simcache.SaveInterval}

// startTries: a worker still binding its listener, or one request lost on
// the network, should not cost the sweep a worker for the whole round.
const startTries = 3

// try runs op up to startTries times and returns its last error. It waits
// delay(n) after failure n unless that was the last; a wait cut short by
// ctx returns ctx's error.
func (p policy) try(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt == startTries-1 {
			return err
		}
		if err := p.wait(ctx, attempt); err != nil {
			return err
		}
	}
}

// wait sleeps delay(attempt), or returns ctx's error once ctx is done.
func (p policy) wait(ctx context.Context, attempt int) error {
	select {
	case <-time.After(p.delay(attempt)):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Report summarizes a completed sweep.
type Report struct {
	// Units is the number of units executed (== the expansion size).
	Units int
	// Completed counts units rendered per worker URL.
	Completed map[string]int
	// Reassigned counts unit dispatches that failed and were retried.
	Reassigned int
	// Dead lists workers dropped from the round: unreachable at start,
	// failing the pre-seed, or out of health probes.
	Dead []string
	// Quarantined lists workers that entered quarantine at least once
	// (including those later re-admitted by a passing probe).
	Quarantined []string
	// Cache sums every worker's cache counters over the round
	// (simcache.Stats.AddDelta) — the cluster-wide hit/miss and work
	// picture, Misses the simulations plus Aliased — and their entry
	// counts at its end.
	Cache simcache.Stats
	// MergedEntries is the federated snapshot size after merging worker
	// deltas (entries failing their checksum are dropped, and warned about
	// when the snapshot is saved).
	MergedEntries int
	// UnitDurations holds the dispatch-to-completion wall time of every
	// unit completed this round, in completion order — the input for
	// end-of-sweep latency percentiles.
	UnitDurations []time.Duration
}

// workerState is the coordinator's view of one serve worker.
type workerState struct {
	url         string
	client      *engine.Client
	inflight    int
	artifacts   map[string]bool // dependency artifacts dispatched here
	dead        bool            // dropped from the round (see drop in Run)
	quarantined bool            // circuit open: no dispatch until a probe passes
	probes      int             // health probes spent across the sweep
	failStreak  int
	before      engine.Health // cache statistics when the round began
}

// unitState tracks one unit through dispatch and retries.
type unitState struct {
	unit       scenario.Unit
	attempts   int
	lastWorker int
}

const (
	evDone = iota
	evFail
	evRequeue
	evProbeOK     // a quarantined worker answered a health probe
	evProbeFailed // a quarantined worker failed a health probe
)

type event struct {
	kind     int
	unitIdx  int
	worker   int
	artifact string
	err      error
	elapsed  time.Duration    // evDone: dispatch-to-completion wall time
	spans    []telemetry.Span // evDone: unit span + the worker's spans
}

// Run executes the sweep and returns the assembled artifact — the bytes
// a single-process `racesim experiments -scenario <selection>` run
// writes to stdout.
func Run(ctx context.Context, opts Options) (_ string, rep Report, err error) {
	rep = Report{Completed: map[string]int{}}
	log := opts.Log
	if log == nil {
		log = func(string, ...any) {}
	}
	retries := opts.Retries
	if retries <= 0 {
		retries = 3
	}
	pol := sweepPolicy
	if opts.policy != nil {
		pol = *opts.policy
	}
	if len(opts.Workers) == 0 {
		return "", rep, fmt.Errorf("cluster: no workers")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	traced := opts.Recorder.Enabled() && opts.Trace.Valid()

	// Expand the selection exactly as a worker will: the unit IDs the
	// coordinator dispatches name the same units in the worker's own
	// expansion of the same selection.
	selected, err := scenario.Select(scenario.Registry(), opts.Scenario)
	if err != nil {
		return "", rep, err
	}
	units, err := scenario.Expand(selected)
	if err != nil {
		return "", rep, err
	}
	rep.Units = len(units)

	workers := make([]*workerState, len(opts.Workers))
	// alive counts the workers that may take a unit now.
	alive := func() int {
		n := 0
		for _, w := range workers {
			if !w.dead && !w.quarantined {
				n++
			}
		}
		return n
	}
	// drop is the one way a worker leaves the round: it gets no more units,
	// its delta is not collected, and Report.Dead lists it.
	drop := func(w *workerState, format string, args ...any) {
		w.dead, w.quarantined = true, false
		rep.Dead = append(rep.Dead, w.url)
		log("sweep: worker %s "+format, append([]any{w.url}, args...)...)
	}
	for i, url := range opts.Workers {
		w := &workerState{
			url:       strings.TrimRight(url, "/"),
			artifacts: map[string]bool{},
		}
		w.client = engine.NewClient(w.url)
		w.client.Log = log
		// Before the caller stops the worker: see CloseIdleConnections.
		defer w.client.CloseIdleConnections()
		workers[i] = w
		err := pol.try(ctx, func() (err error) {
			w.before, err = w.client.Health(ctx)
			return err
		})
		if ctx.Err() != nil {
			return "", rep, ctx.Err()
		}
		if err != nil {
			drop(w, "unreachable at start: %v", err)
		}
	}
	if alive() == 0 {
		return "", rep, fmt.Errorf("cluster: none of the %d workers are reachable", len(workers))
	}
	log("sweep: %d units across %d workers (window %d)", len(units), alive(), window)

	// Federation, inbound half: warm every worker from the coordinator's
	// snapshot so overlapping selections re-run at cluster-wide hits. The
	// snapshot is saved on every way out, with the workers' deltas once the
	// round has started and collected them.
	fed := simcache.New()
	sweepLog := func(format string, args ...any) { log("sweep: "+format, args...) }
	snap, err := simcache.Open(fed, opts.CachePath, sweepLog, sweepLog)
	if err != nil {
		return "", rep, err
	}
	defer func() { err = snap.Close(err) }()
	if n := fed.Stats().Entries; n > 0 {
		// Pre-seeding streams to every worker at once what it lacks of the
		// snapshot — record bytes are copied into the request body as the
		// peer consumes it, so the coordinator never buffers the snapshot. A
		// worker whose cache was empty at the health check gets every record;
		// any other is first asked which of the snapshot's key hashes it
		// lacks (a question that moves its delta baseline as an import
		// does) and gets those alone, or no request at all. An exchange that
		// fails falls back to the whole snapshot. Transient failures are
		// retried (a dropped or corrupted request is the client's error, not
		// the peer's); only a persistently failing import costs a worker its
		// seat.
		hashes := fed.KeyHashes()
		preseed := func(w *workerState) (int, error) {
			write := fed.WriteBinaryTo
			if w.before.Cache.Entries > 0 {
				missing, err := w.client.MissingKeys(ctx, hashes)
				switch {
				case err != nil:
					log("sweep: worker %s: key exchange failed (%v); sending the whole snapshot", w.url, err)
				case len(missing) == 0:
					return 0, nil
				default:
					lacks := make([]uint64, len(missing))
					for i, p := range missing {
						lacks[i] = hashes[p]
					}
					write = func(pw io.Writer) error { return fed.WriteSubsetTo(pw, lacks) }
				}
			}
			pr, pw := io.Pipe()
			go func() { pw.CloseWithError(write(pw)) }()
			defer pr.Close()
			r, err := w.client.ImportSnapshotFrom(ctx, pr)
			return r.Added + r.Replaced + int(r.Rejected), err
		}
		errs := make([]error, len(workers))
		sent := make([]int, len(workers))
		var wg sync.WaitGroup
		for i, w := range workers {
			if w.dead {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = pol.try(ctx, func() (err error) {
					sent[i], err = preseed(w)
					return err
				})
			}()
		}
		wg.Wait()
		if ctx.Err() != nil {
			return "", rep, ctx.Err()
		}
		var to []string
		for i, w := range workers {
			if errs[i] != nil {
				drop(w, "failed pre-seed: %v", errs[i])
			} else if !w.dead {
				to = append(to, fmt.Sprintf("%d to %s", sent[i], w.url))
			}
		}
		if alive() == 0 {
			return "", rep, fmt.Errorf("cluster: every worker failed pre-seeding")
		}
		log("sweep: pre-seeded %d workers with %d entries (sent %s)", alive(), n, strings.Join(to, ", "))
	}

	ustates := make([]*unitState, len(units))
	results := make([]string, len(units))
	pending := make([]int, len(units))
	for i, u := range units {
		ustates[i] = &unitState{unit: u, lastWorker: -1}
		pending[i] = i
	}
	// Buffered past the worst case (one completion, requeue timer or
	// probe per unit/worker at a time) so goroutines abandoned by an
	// early error return never block on send.
	events := make(chan event, 2*len(units)+2*len(workers))
	outstanding := 0

	// sendEvent delivers ev without leaking the sending goroutine if the
	// run already returned (the deferred cancel fires on every exit path).
	sendEvent := func(ev event) {
		select {
		case events <- ev:
		case <-ctx.Done():
		}
	}

	// probe re-checks a quarantined worker's health off-loop after
	// delay(attempt). It reports exactly one event; the outstanding slot it
	// holds keeps the main loop alive while every worker is quarantined.
	probe := func(wi, attempt int) {
		if pol.wait(ctx, attempt) != nil {
			return
		}
		if _, err := workers[wi].client.Health(ctx); err != nil {
			sendEvent(event{kind: evProbeFailed, worker: wi, err: err})
			return
		}
		sendEvent(event{kind: evProbeOK, worker: wi})
	}

	// quarantine opens a worker's circuit, or keeps it open, and spends one
	// of its health probes — or drops the worker once it has spent them all.
	// why says what brought it here.
	quarantine := func(wi int, why string) {
		w := workers[wi]
		if w.probes >= pol.probeLimit {
			drop(w, "%s; no health probes left: dead", why)
			return
		}
		w.quarantined = true
		rep.Quarantined = appendOnce(rep.Quarantined, w.url)
		w.probes++
		log("sweep: worker %s %s; probing (%d/%d)", w.url, why, w.probes, pol.probeLimit)
		outstanding++ // the prober keeps the loop alive
		go probe(wi, w.probes)
	}

	// pickUnit chooses the best pending unit for a worker: the one whose
	// dependency artifacts overlap most with what the worker has already
	// built (warm-context affinity), ties broken by lowest global index
	// (deterministic, keeps the output tail short). A retried unit avoids
	// the worker it just failed on while an alternative exists.
	pickUnit := func(wi int) int {
		w := workers[wi]
		best, bestScore := -1, -1
		for pi, ui := range pending {
			u := ustates[ui]
			if u.attempts > 0 && u.lastWorker == wi && alive() > 1 {
				continue
			}
			score := 0
			for _, d := range u.unit.Deps {
				if w.artifacts[d] {
					score++
				}
			}
			if score > bestScore || (score == bestScore && best >= 0 && ui < pending[best]) {
				best, bestScore = pi, score
			}
		}
		return best
	}

	runUnit := func(wi, ui int) {
		w, u := workers[wi], ustates[ui]
		job := engine.Job{Kind: engine.KindExperiments, Experiments: &engine.ExperimentsJob{
			Scenario: opts.Scenario,
			Units:    u.unit.ID,
			Scale:    opts.Scale,
			Events:   opts.Events,
			Budget1:  opts.Budget1,
			Budget2:  opts.Budget2,
			Seed:     opts.Seed,
			Quiet:    true,
		}}
		// Each dispatch attempt gets a fresh unit span; only the attempt
		// that completes records it, so retries never double-cover a unit
		// in the flight recorder.
		start := time.Now()
		jobCtx := ctx
		var unitSpan telemetry.Span
		if traced {
			unitSpan = telemetry.Span{
				Trace:  opts.Trace.Trace,
				ID:     telemetry.NewID(),
				Parent: opts.Trace.Span,
				Name:   "unit",
				Start:  start,
				Attrs: map[string]string{
					"unit":    u.unit.ID,
					"worker":  w.url,
					"attempt": fmt.Sprint(u.attempts + 1),
				},
			}
			jobCtx = telemetry.ContextWithSpan(ctx, unitSpan.Context())
		}
		id, err := w.client.Submit(jobCtx, job)
		if err != nil {
			sendEvent(event{kind: evFail, unitIdx: ui, worker: wi, err: err})
			return
		}
		// Watch streams the job's terminal state over SSE, re-opening the
		// stream if it breaks mid-run.
		st, err := w.client.Watch(ctx, id, 0)
		if err != nil {
			if ctx.Err() != nil {
				// The round is over: stop the job rather than leave it
				// running on the worker.
				cctx, stop := context.WithTimeout(context.WithoutCancel(ctx), closeTimeout)
				w.client.Cancel(cctx, id)
				stop()
			}
			sendEvent(event{kind: evFail, unitIdx: ui, worker: wi, err: err})
			return
		}
		if st.Status != "done" || st.Result == nil {
			sendEvent(event{kind: evFail, unitIdx: ui, worker: wi,
				err: fmt.Errorf("job %s %s: %s", id, st.Status, st.Error)})
			return
		}
		ev := event{kind: evDone, unitIdx: ui, worker: wi,
			artifact: st.Result.Artifact, elapsed: time.Since(start)}
		if traced {
			unitSpan.DurationNS = ev.elapsed.Nanoseconds()
			ev.spans = append([]telemetry.Span{unitSpan}, st.Result.Spans...)
		}
		sendEvent(ev)
	}

	dispatch := func() {
		for {
			progressed := false
			for wi, w := range workers {
				if w.dead || w.quarantined || w.inflight >= window || len(pending) == 0 {
					continue
				}
				pi := pickUnit(wi)
				if pi < 0 {
					continue
				}
				ui := pending[pi]
				pending = append(pending[:pi], pending[pi+1:]...)
				u := ustates[ui]
				w.inflight++
				for _, d := range u.unit.Deps {
					w.artifacts[d] = true
				}
				outstanding++
				log("sweep: [%d/%d] %s -> %s%s", u.unit.Index+1, len(units), u.unit.ID, w.url,
					map[bool]string{true: " (retry)", false: ""}[u.attempts > 0])
				go runUnit(wi, ui)
				progressed = true
			}
			if !progressed {
				return
			}
		}
	}

	// Federation, outbound half: collect merges every live worker's delta
	// into fed — checksummed, last-writer-wins — and recomputes the
	// cluster-wide cache statistics. A delta is everything the worker
	// stored since its pre-seed, so a repeated collection re-reads what fed
	// already holds: those records count as replaced and cost a byte
	// compare. Deltas stream from the peer's response body into fed record
	// by record, so neither side buffers a whole snapshot. A delta that
	// broke off or lost records to their checksums in transit is fetched
	// again, up to startTries times: the collection on the way out is the
	// only one that carries the round's last units.
	pull := func(ctx context.Context, cl *engine.Client) (int, error) {
		rejected := fed.Stats().Rejected
		rc, err := cl.SnapshotReader(ctx, true)
		if err != nil {
			return 0, err
		}
		defer rc.Close()
		added, _, err := fed.LoadStream(rc)
		if n := fed.Stats().Rejected - rejected; err == nil && n > 0 {
			err = fmt.Errorf("%d records failed their checksum", n)
		}
		return added, err
	}
	collect := func(ctx context.Context) {
		rep.Cache = simcache.Stats{}
		for _, w := range workers {
			if w.dead {
				continue
			}
			var added int
			err := pol.try(ctx, func() error {
				n, err := pull(ctx, w.client)
				added += n
				return err
			})
			if err != nil {
				log("sweep: worker %s: delta collection failed: %v", w.url, err)
				continue
			}
			log("sweep: worker %s contributed %d cache entries", w.url, added)
			if h, err := w.client.Health(ctx); err == nil {
				rep.Cache.AddDelta(h.Cache, w.before.Cache)
			}
		}
		rep.MergedEntries = fed.Stats().Entries
	}

	// Every way out of the round collects before the deferred save, so a
	// failed or interrupted sweep keeps what its workers simulated; an
	// interrupted one collects under a bounded context of its own.
	defer func() {
		cctx := ctx
		if ctx.Err() != nil {
			var stop context.CancelFunc
			cctx, stop = context.WithTimeout(context.WithoutCancel(ctx), closeTimeout)
			defer stop()
		}
		collect(cctx)
		sort.Strings(rep.Dead)
		sort.Strings(rep.Quarantined)
		log("sweep: cluster cache: %d hits, %d misses, %d shared in-flight (%.1f%% hit rate)",
			rep.Cache.Hits, rep.Cache.Misses, rep.Cache.Shared, rep.Cache.HitRate()*100)
		log("sweep: work: %s", rep.Cache.Work())
	}()

	// The event loop runs until every unit has rendered, a unit runs out
	// of retries, no live worker is left or ctx is done. With a cache file,
	// a unit that finishes once pol.checkpoint has passed since the last
	// save collects and saves, while the other units go on.
	lastSave := time.Now()
	dispatch()
	for completed := 0; completed < len(units); {
		if outstanding == 0 {
			return "", rep, fmt.Errorf("cluster: no live workers remain (%d of %d units unfinished)",
				len(units)-completed, len(units))
		}
		var ev event
		select {
		case ev = <-events:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			return "", rep, err
		}
		w := workers[ev.worker]
		switch ev.kind {
		case evDone:
			outstanding--
			w.inflight--
			w.failStreak = 0
			rep.Completed[w.url]++
			results[ev.unitIdx] = ev.artifact
			completed++
			rep.UnitDurations = append(rep.UnitDurations, ev.elapsed)
			opts.Recorder.Add(ev.spans...)
			if snap != nil && completed < len(units) && time.Since(lastSave) >= pol.checkpoint {
				collect(ctx)
				// Not fatal: the save on the way out tries again and reports.
				if err := snap.Save(); err != nil {
					log("sweep: %v", err)
				}
				lastSave = time.Now()
			}
		case evFail:
			outstanding--
			w.inflight--
			w.failStreak++
			if !w.dead && !w.quarantined && w.failStreak >= pol.deadAfter {
				// Open the circuit: stop feeding the worker, but probe its
				// health in the background — a worker that merely restarted
				// (or sat behind a burst of injected faults) re-admits
				// instead of shrinking the pool for the rest of the sweep.
				quarantine(ev.worker, fmt.Sprintf("failed %d units in a row", w.failStreak))
			}
			u := ustates[ev.unitIdx]
			u.attempts++
			u.lastWorker = ev.worker
			if u.attempts > retries {
				return "", rep, fmt.Errorf("cluster: unit %s failed %d times, last on %s: %w",
					u.unit.ID, u.attempts, w.url, ev.err)
			}
			rep.Reassigned++
			delay := pol.delay(u.attempts - 1)
			log("sweep: unit %s failed on %s (attempt %d/%d): %v; redispatching in %v",
				u.unit.ID, w.url, u.attempts, retries+1, ev.err, delay)
			outstanding++ // the requeue timer keeps the loop alive
			ui := ev.unitIdx
			time.AfterFunc(delay, func() { sendEvent(event{kind: evRequeue, unitIdx: ui}) })
		case evRequeue:
			outstanding--
			pending = append(pending, ev.unitIdx)
		case evProbeOK:
			outstanding--
			// Probation: one more failure re-quarantines immediately (the
			// streak restarts one short of the threshold), but a worker
			// that is actually healthy again rejoins at full capacity.
			w.quarantined = false
			w.failStreak = pol.deadAfter - 1
			log("sweep: worker %s passed its health probe; re-admitted on probation", w.url)
		case evProbeFailed:
			outstanding--
			quarantine(ev.worker, fmt.Sprintf("failed health probe %d/%d: %v", w.probes, pol.probeLimit, ev.err))
		}
		dispatch()
	}
	return strings.Join(results, ""), rep, nil
}

// appendOnce appends s to list unless already present (short lists only).
func appendOnce(list []string, s string) []string {
	for _, v := range list {
		if v == s {
			return list
		}
	}
	return append(list, s)
}
