package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"racesim/internal/cluster"
	"racesim/internal/engine"
	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/scenario"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/telemetry"
	"racesim/internal/ubench"
	"racesim/internal/validate"
	"racesim/internal/workload"
)

// sizing fixes how much work one iteration of each workload is. The full
// sizes keep an iteration's real mix (perturbation search and irace rounds
// for the experiments job, a budget-capped race for the tuner) while
// letting several iterations fit one run; the short sizes are for the
// package test.
type sizing struct {
	Scenario         string  // experiments selection ("all" = the nine paper units)
	Scale            float64 // micro-benchmark scale of the experiments job
	Events           int     // Table II trace length of the experiments job
	Budget1, Budget2 int     // irace budgets of the experiments job
	TuneScale        float64 // micro-benchmark scale of tune_inorder
	TuneBudget       int     // irace budget of tune_inorder
	TuneEvents       int     // held-out trace length of tune_inorder
	MinIters         int     // timed iterations at least, whatever -seconds says
	// The layer probes: how long each timing loop runs at least, and how
	// many micro-benchmarks and Table II workloads they are fed.
	ProbeDur    time.Duration
	ProbeSuite  int
	ProbeSpec   int
	ProbeServed int // warm run jobs submitted to the probe server
}

var fullSize = sizing{
	Scenario: "all", Scale: 0.001, Events: 2000, Budget1: 100, Budget2: 120,
	TuneScale: 0.004, TuneBudget: 1000, TuneEvents: 4000,
	MinIters: 3, ProbeDur: 100 * time.Millisecond, ProbeSuite: 40, ProbeSpec: 11, ProbeServed: 16,
}

var shortSize = sizing{
	Scenario: "table1,table2,fig2", Scale: 0.0005, Events: 400, Budget1: 40, Budget2: 40,
	TuneScale: 0.0005, TuneBudget: 60, TuneEvents: 400,
	MinIters: 2, ProbeDur: time.Millisecond, ProbeSuite: 6, ProbeSpec: 2, ProbeServed: 3,
}

// runEnv is what a workload is built from: its sizing, the seed (which
// reaches the program only through generated inputs: ExperimentsJob.Seed,
// TuneOptions.Seed, workload.Options.Seed) and a scratch directory.
type runEnv struct {
	size    sizing
	seed    int64
	workDir string
	par     int // GOMAXPROCS: the closed loop never runs more generators than this
}

// iterResult is what one closed-loop iteration produced. The harness fills
// Start and the clock.
type iterResult struct {
	Start time.Time
	clock
	Stats    simcache.Stats // cache activity of this iteration alone
	Artifact string         // the bytes a user would get
	Log      string         // the job's stderr stream (timing lines)
	// Cache is the iteration's own result cache when it has one (cold
	// workloads), for post-hoc accounting.
	Cache *simcache.Cache
	Tune  *tuneOutcome    // tune_inorder
	Sweep *cluster.Report // sweep_2w
	// WorkerBusy is each sweep worker's summed job run time (traced
	// iteration only, from the workers' JobStatus timestamps).
	WorkerBusy []float64
	// Ops/OpsFailed count the operations inside the iteration that can
	// fail on their own (sweep units); the iteration itself is counted by
	// the harness.
	Ops, OpsFailed int
}

func (r *iterResult) lookups() uint64 {
	return r.Stats.Hits + r.Stats.Misses + r.Stats.Shared + r.Stats.RemoteHits
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func check(name string, ok bool, format string, args ...any) checkResult {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// instance is one prepared workload: inputs generated, snapshots written,
// servers started. iterate runs one closed-loop iteration; with a recorder
// it runs the same work decomposed into spans under parent.
type instance interface {
	// reset does the untimed per-iteration preparation (a fresh copy of
	// the pristine snapshot).
	reset() error
	iterate(rec *telemetry.Recorder, parent telemetry.SpanContext) (*iterResult, error)
	// checks are the workload's self-checks over every iteration run so
	// far (warm-up included).
	checks(iters []*iterResult) []checkResult
	// rerunWarm repeats it's work on its now-warm cache and returns the
	// CPU time taken; ok is false for workloads that never replay.
	rerunWarm(it *iterResult) (cpu float64, ok bool, err error)
	// resultCache returns a cache holding the workload's results, for
	// the storage probes.
	resultCache(it *iterResult) (*simcache.Cache, error)
	close() error
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// ---------------------------------------------------------------------
// paper_cold / paper_warm: engine.Execute of one experiments job.

type paperInstance struct {
	env  *runEnv
	warm bool
	job  engine.Job
	// warm only: the snapshot the set-up cold run wrote, the copy each
	// iteration opens (and saves back to), and the cold run's artifact.
	pristine, work string
	coldArtifact   string
}

func experimentsJob(env *runEnv) engine.Job {
	return engine.Job{Kind: engine.KindExperiments, Experiments: &engine.ExperimentsJob{
		Scenario: env.size.Scenario,
		Scale:    env.size.Scale,
		Events:   env.size.Events,
		Budget1:  env.size.Budget1,
		Budget2:  env.size.Budget2,
		Seed:     env.seed,
		Quiet:    true,
	}}
}

// coldSnapshot runs the experiments job cold, persisting its cache to
// path, and returns the artifact: the set-up of the two warm workloads and
// the single-process reference their output is compared with.
func coldSnapshot(env *runEnv, path string) (string, error) {
	res, err := engine.Execute(experimentsJob(env), engine.Options{CachePath: path, Capture: true})
	if err != nil {
		return "", fmt.Errorf("cold snapshot run: %w", err)
	}
	return res.Artifact, nil
}

func newPaper(env *runEnv, warm bool) (instance, error) {
	p := &paperInstance{env: env, warm: warm, job: experimentsJob(env)}
	if warm {
		p.pristine = filepath.Join(env.workDir, "pristine.snap")
		p.work = filepath.Join(env.workDir, "warm.snap")
		art, err := coldSnapshot(env, p.pristine)
		if err != nil {
			return nil, err
		}
		p.coldArtifact = art
	}
	return p, nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (p *paperInstance) reset() error {
	if !p.warm {
		return nil
	}
	return copyFile(p.work, p.pristine)
}

func (p *paperInstance) iterate(rec *telemetry.Recorder, parent telemetry.SpanContext) (*iterResult, error) {
	it := &iterResult{}
	if rec == nil {
		opts := engine.Options{Capture: true}
		if p.warm {
			opts.CachePath = p.work
		} else {
			it.Cache = simcache.New()
			opts.Cache = it.Cache
		}
		res, err := engine.Execute(p.job, opts)
		if err != nil {
			return nil, err
		}
		it.Stats, it.Artifact, it.Log = res.CacheStats, res.Artifact, res.Log
		return it, nil
	}
	cache := simcache.New()
	cachePath := ""
	if p.warm {
		cachePath = p.work
	} else {
		it.Cache = cache
	}
	art, err := tracedExperiments(p.env, cache, cachePath, rec, parent)
	if err != nil {
		return nil, err
	}
	it.Stats, it.Artifact = cache.Stats(), art
	return it, nil
}

// tracedExperiments is what engine.Execute does for an experiments job,
// called layer by layer so each call gets a span: scenario.Select/Expand,
// scenario.Run (one child span per unit, from the unit's own Elapsed; units
// run back to back, so they are laid end to end from the start of Run) and
// scenario.RenderAll.
func tracedExperiments(env *runEnv, cache *simcache.Cache, cachePath string,
	rec *telemetry.Recorder, parent telemetry.SpanContext) (string, error) {
	sp := rec.StartSpan("scenario.expand", parent, nil)
	selected, err := scenario.Select(scenario.Registry(), env.size.Scenario)
	if err != nil {
		return "", err
	}
	units, err := scenario.Expand(selected)
	if err != nil {
		return "", err
	}
	sp.End()

	sp = rec.StartSpan("scenario.run", parent, nil)
	runStart := time.Now()
	results, err := scenario.Run(units, scenario.RunOptions{
		Expt: expt.Options{
			UbenchScale:    env.size.Scale,
			WorkloadEvents: env.size.Events,
			BudgetRound1:   env.size.Budget1,
			BudgetRound2:   env.size.Budget2,
			Seed:           env.seed,
			Parallelism:    env.par,
			Cache:          cache,
			Context:        context.Background(),
		},
		CachePath: cachePath,
	})
	if err != nil {
		return "", err
	}
	sp.End()
	at := runStart
	for _, r := range results {
		addSpan(rec, sp.Context(), "scenario.unit", at, r.Experiment.Elapsed, map[string]string{"unit": r.Unit.ID})
		at = at.Add(r.Experiment.Elapsed)
	}

	sp = rec.StartSpan("scenario.render", parent, nil)
	art := scenario.RenderAll(results)
	sp.End()
	return art, nil
}

// expansionIDs lists the unit IDs the sizing's selection expands to.
func expansionIDs(env *runEnv) ([]string, error) {
	selected, err := scenario.Select(scenario.Registry(), env.size.Scenario)
	if err != nil {
		return nil, err
	}
	units, err := scenario.Expand(selected)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(units))
	for i, u := range units {
		ids[i] = u.ID
	}
	return ids, nil
}

// unitHeaders checks the artifact carries the header of every unit of the
// selection, in order.
func unitHeaders(env *runEnv, artifact string) checkResult {
	ids, err := expansionIDs(env)
	if err != nil {
		return check("artifact_unit_headers", false, "%v", err)
	}
	pos := 0
	for _, id := range ids {
		i := strings.Index(artifact[pos:], "## "+id+" ")
		if i < 0 {
			return check("artifact_unit_headers", false, "header of unit %s missing (or out of order)", id)
		}
		pos += i
	}
	return check("artifact_unit_headers", true, "")
}

func identicalArtifacts(iters []*iterResult) checkResult {
	for i, it := range iters[1:] {
		if it.Artifact != iters[0].Artifact {
			return check("artifacts_identical_across_iterations", false,
				"iteration %d: sha256 %s, first %s", i+1, digest(it.Artifact), digest(iters[0].Artifact))
		}
	}
	return check("artifacts_identical_across_iterations", true, "")
}

func (p *paperInstance) checks(iters []*iterResult) []checkResult {
	out := []checkResult{identicalArtifacts(iters), unitHeaders(p.env, iters[0].Artifact)}
	if p.warm {
		out = append(out, check("artifact_equals_cold_run", iters[0].Artifact == p.coldArtifact,
			"warm sha256 %s, cold %s", digest(iters[0].Artifact), digest(p.coldArtifact)))
		misses := uint64(0)
		for _, it := range iters {
			misses += it.Stats.Misses
		}
		out = append(out, check("no_cache_misses", misses == 0, "%d simulations ran on a warm snapshot", misses))
	}
	return out
}

func (p *paperInstance) rerunWarm(it *iterResult) (float64, bool, error) {
	if p.warm || it.Cache == nil {
		return 0, false, nil
	}
	w := startWatch()
	res, err := engine.Execute(p.job, engine.Options{Cache: it.Cache, Capture: true})
	cpu := w.stop().CPU
	if err != nil {
		return 0, true, err
	}
	if res.Artifact != it.Artifact {
		return 0, true, fmt.Errorf("re-run on the warm cache rendered different bytes")
	}
	return cpu, true, nil
}

func (p *paperInstance) resultCache(it *iterResult) (*simcache.Cache, error) {
	if it.Cache != nil {
		return it.Cache, nil
	}
	return loadSnapshot(p.pristine)
}

func loadSnapshot(path string) (*simcache.Cache, error) {
	c := simcache.New()
	if _, _, err := c.LoadChecked(path); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *paperInstance) close() error { return nil }

// ---------------------------------------------------------------------
// tune_inorder: one cold validate.Tune race, scored on held-out workloads.

type tuneInstance struct {
	env        *runEnv
	suite      []validate.Measurement // the 40 Table I micro-benchmarks on the A53 board
	heldout    []validate.Measurement // the 11 Table II workloads, never seen by the tuner
	untunedPct float64                // suite error of the public model
}

// tuneOutcome is one race and its scoring.
type tuneOutcome struct {
	Tuned                              sim.Config
	BestCost                           float64
	Budget                             int
	Evaluations, Iterations, RaceSteps int
	SuiteErrPct, HeldoutErrPct         float64
	// Wall-time split, filled by the traced path only.
	TuneS, RunS, EvalS, ErrorsS float64
	BatchWidth, Concurrency     float64
}

// heldoutWorkloads generates the Table II workloads from the seed and
// measures them on the board: the data the tuner never sees.
func heldoutWorkloads(board *hw.Board, events int, seed int64) ([]validate.Measurement, error) {
	var out []validate.Measurement
	for _, p := range workload.Profiles() {
		tr, err := workload.Generate(p, workload.Options{Events: events, Seed: seed})
		if err != nil {
			return nil, err
		}
		c, err := board.Measure(tr)
		if err != nil {
			return nil, err
		}
		out = append(out, validate.Measurement{
			Bench: ubench.Bench{Name: p.Name, Category: "spec"}, Trace: tr, Counters: c,
		})
	}
	return out, nil
}

func meanErrPct(cfg sim.Config, ms []validate.Measurement, cache *simcache.Cache, par int) (float64, error) {
	errs, err := validate.ErrorsWith(cfg, ms, cache, par)
	if err != nil {
		return 0, err
	}
	mean, err := validate.MeanError(errs)
	return mean * 100, err
}

func newTune(env *runEnv) (instance, error) {
	plat, err := hw.Firefly()
	if err != nil {
		return nil, err
	}
	t := &tuneInstance{env: env}
	t.suite, err = validate.MeasureSuiteParallel(plat.A53, ubench.Options{Scale: env.size.TuneScale}, env.par)
	if err != nil {
		return nil, err
	}
	t.heldout, err = heldoutWorkloads(plat.A53, env.size.TuneEvents, env.seed)
	if err != nil {
		return nil, err
	}
	t.untunedPct, err = meanErrPct(sim.PublicA53(), t.suite, nil, env.par)
	return t, err
}

func (t *tuneInstance) reset() error { return nil }

func (t *tuneInstance) iterate(rec *telemetry.Recorder, parent telemetry.SpanContext) (*iterResult, error) {
	cache := simcache.New()
	out, err := tuneOnce(t.suite, t.heldout, t.env.size.TuneBudget, t.env.seed, cache, t.env.par, rec, parent)
	if err != nil {
		return nil, err
	}
	cfg, err := json.Marshal(out.Tuned)
	if err != nil {
		return nil, err
	}
	return &iterResult{
		Stats: cache.Stats(), Cache: cache, Tune: out,
		Artifact: fmt.Sprintf("%s\nbest_cost %v\nheldout_cpi_err_pct %v\n", cfg, out.BestCost, out.HeldoutErrPct),
	}, nil
}

// timedEvaluator decorates the tuner's evaluator with a clock: the traced
// race's wall time splits into time covered by evaluator calls (replay,
// through simcache) and the tuner's own sampling and statistics.
type timedEvaluator struct {
	inner irace.BatchEvaluator
	mu    sync.Mutex
	calls []evalCall
}

type evalCall struct {
	start, end time.Time
	width      int
}

func (e *timedEvaluator) NumInstances() int { return e.inner.NumInstances() }

func (e *timedEvaluator) note(start time.Time, width int) {
	end := time.Now()
	e.mu.Lock()
	e.calls = append(e.calls, evalCall{start, end, width})
	e.mu.Unlock()
}

func (e *timedEvaluator) Cost(a irace.Assignment, instance int) float64 {
	defer e.note(time.Now(), 1)
	return e.inner.Cost(a, instance)
}

func (e *timedEvaluator) CostBatch(as []irace.Assignment, instance int) []float64 {
	defer e.note(time.Now(), len(as))
	return e.inner.CostBatch(as, instance)
}

// busy returns the wall time covered by at least one call, the summed call
// time and the mean batch width.
func (e *timedEvaluator) busy() (union, sum time.Duration, width float64) {
	if len(e.calls) == 0 {
		return 0, 0, 0
	}
	ivs := make([]interval, len(e.calls))
	configs := 0
	for i, c := range e.calls {
		ivs[i] = interval{c.start.UnixNano(), c.end.UnixNano()}
		sum += c.end.Sub(c.start)
		configs += c.width
	}
	return time.Duration(covered(ivs)), sum, float64(configs) / float64(len(e.calls))
}

// tuneOnce runs one tuning race and scores the tuned model on the suite it
// was tuned on and on the held-out workloads. Untraced it is validate.Tune;
// traced it is validate.Tune's own steps called one by one (space,
// evaluator behind the timing decorator, irace.Tuner.Run, final error
// pass), which must produce the same result.
func tuneOnce(suite, heldout []validate.Measurement, budget int, seed int64, cache *simcache.Cache,
	par int, rec *telemetry.Recorder, parent telemetry.SpanContext) (*tuneOutcome, error) {
	out := &tuneOutcome{Budget: budget}
	base := sim.PublicA53()
	var res *irace.Result
	var errs []validate.BenchError
	if rec == nil {
		tr, err := validate.Tune(base, suite, validate.TuneOptions{Budget: budget, Seed: seed, Cache: cache})
		if err != nil {
			return nil, err
		}
		out.Tuned, res, errs = tr.Tuned, tr.Irace, tr.Errors
	} else {
		tuneSpan := rec.StartSpan("validate.tune", parent, nil)
		tuneWatch := time.Now()
		var params []irace.Param
		for _, d := range sim.Params(base.Kind) {
			params = append(params, irace.Param{Name: d.Name, Values: d.Values, Ordered: d.Ordered})
		}
		space, err := irace.NewSpace(params)
		if err != nil {
			return nil, err
		}
		eval := &timedEvaluator{inner: &validate.Evaluator{Base: base, Ms: suite, Cache: cache}}
		tuner, err := irace.New(space, eval, irace.Options{Budget: budget, Seed: seed})
		if err != nil {
			return nil, err
		}
		runSpan := rec.StartSpan("irace.run", tuneSpan.Context(), nil)
		runStart := time.Now()
		res, err = tuner.Run()
		if err != nil {
			return nil, err
		}
		out.RunS = time.Since(runStart).Seconds()
		runSpan.End()
		union, sum, width := eval.busy()
		// The evaluator calls overlap (irace keeps GOMAXPROCS in flight),
		// so they enter the span tree as one child covering their union.
		addSpan(rec, runSpan.Context(), "validate.cost_batch", runStart, union,
			map[string]string{"calls": fmt.Sprint(len(eval.calls)), "note": "union of concurrent evaluator calls, laid at the start of the run"})
		out.EvalS, out.BatchWidth = union.Seconds(), width
		if union > 0 {
			out.Concurrency = sum.Seconds() / union.Seconds()
		}

		out.Tuned, err = sim.Apply(base, res.Best)
		if err != nil {
			return nil, err
		}
		out.Tuned.Name = base.Name + "-tuned"
		errSpan := rec.StartSpan("validate.errors", tuneSpan.Context(), nil)
		errStart := time.Now()
		errs, err = validate.ErrorsWith(out.Tuned, suite, cache, par)
		if err != nil {
			return nil, err
		}
		out.ErrorsS = time.Since(errStart).Seconds()
		errSpan.End()
		out.TuneS = time.Since(tuneWatch).Seconds()
		tuneSpan.End()
	}
	out.BestCost, out.Evaluations = res.BestCost, res.Evaluations
	out.Iterations, out.RaceSteps = len(res.Iterations), len(res.RaceTrace)
	mean, err := validate.MeanError(errs)
	if err != nil {
		return nil, err
	}
	out.SuiteErrPct = mean * 100

	sp := rec.StartSpan("validate.heldout", parent, nil)
	out.HeldoutErrPct, err = meanErrPct(out.Tuned, heldout, cache, par)
	sp.End()
	return out, err
}

func (t *tuneInstance) checks(iters []*iterResult) []checkResult {
	first := iters[0].Tune
	out := []checkResult{
		check("evaluations_within_budget", first.Evaluations <= first.Budget,
			"%d evaluations on a budget of %d", first.Evaluations, first.Budget),
		check("tuned_better_than_untuned", first.SuiteErrPct < t.untunedPct,
			"tuned suite error %.3f%%, untuned %.3f%%", first.SuiteErrPct, t.untunedPct),
	}
	same := check("best_cost_identical_across_iterations", true, "")
	for i, it := range iters[1:] {
		if it.Tune.BestCost != first.BestCost || it.Artifact != iters[0].Artifact {
			same = check("best_cost_identical_across_iterations", false,
				"iteration %d: best cost %v, first %v", i+1, it.Tune.BestCost, first.BestCost)
			break
		}
	}
	return append(out, same)
}

func (t *tuneInstance) rerunWarm(it *iterResult) (float64, bool, error) {
	w := startWatch()
	out, err := tuneOnce(t.suite, t.heldout, t.env.size.TuneBudget, t.env.seed, it.Cache, t.env.par, nil, telemetry.SpanContext{})
	cpu := w.stop().CPU
	if err != nil {
		return 0, true, err
	}
	if out.BestCost != it.Tune.BestCost {
		return 0, true, fmt.Errorf("re-run on the warm cache found best cost %v, cold run %v", out.BestCost, it.Tune.BestCost)
	}
	return cpu, true, nil
}

func (t *tuneInstance) resultCache(it *iterResult) (*simcache.Cache, error) { return it.Cache, nil }

func (t *tuneInstance) close() error { return nil }

// ---------------------------------------------------------------------
// sweep_2w: cluster.Run across two in-process serve workers.

// servedWorker is one engine.Server behind a loopback HTTP listener.
type servedWorker struct {
	srv  *engine.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func startWorker(opts engine.ServerOptions) (*servedWorker, error) {
	srv, err := engine.NewServer(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &servedWorker{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		w.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return w, nil
}

// stop drains the job server, closes the listener and every connection,
// and waits for the serving goroutine.
func (w *servedWorker) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.srv.Drain(ctx)
	if cerr := w.hs.Close(); err == nil {
		err = cerr
	}
	<-w.done
	return err
}

// jobs lists the worker's job statuses (GET /v1/jobs).
func (w *servedWorker) jobs() ([]engine.JobStatus, error) {
	resp, err := http.Get(w.url + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs: %s", resp.Status)
	}
	var out []engine.JobStatus
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

type sweepInstance struct {
	env            *runEnv
	workers        []*servedWorker
	pristine, work string
	coldArtifact   string
	units          int
}

func newSweep(env *runEnv) (instance, error) {
	s := &sweepInstance{
		env:      env,
		pristine: filepath.Join(env.workDir, "pristine.snap"),
		work:     filepath.Join(env.workDir, "federated.snap"),
	}
	art, err := coldSnapshot(env, s.pristine)
	if err != nil {
		return nil, err
	}
	s.coldArtifact = art
	ids, err := expansionIDs(env)
	if err != nil {
		return nil, err
	}
	s.units = len(ids)
	for i := 0; i < 2; i++ {
		w, err := startWorker(engine.ServerOptions{Workers: 1, Parallelism: 1})
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

func (s *sweepInstance) urls() []string {
	out := make([]string, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.url
	}
	return out
}

func (s *sweepInstance) reset() error { return copyFile(s.work, s.pristine) }

func (s *sweepInstance) iterate(rec *telemetry.Recorder, parent telemetry.SpanContext) (*iterResult, error) {
	start := time.Now()
	sp := rec.StartSpan("cluster.run", parent, nil)
	art, rep, err := cluster.Run(context.Background(), cluster.Options{
		Workers:   s.urls(),
		CachePath: s.work,
		Scenario:  s.env.size.Scenario,
		Scale:     s.env.size.Scale,
		Events:    s.env.size.Events,
		Budget1:   s.env.size.Budget1,
		Budget2:   s.env.size.Budget2,
		Seed:      s.env.seed,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	it := &iterResult{
		Stats: rep.Cache, Artifact: art, Sweep: &rep,
		Ops: s.units, OpsFailed: rep.Reassigned,
	}
	if rec == nil {
		return it, nil
	}
	// The sweep is decomposed after the fact, from the workers' own job
	// timestamps. The two workers run jobs at once, so the jobs enter the
	// span tree as one child covering the time at least one job ran; what is
	// left of cluster.run as self time is coordination alone: pre-seed,
	// dispatch, watching, delta collection, assembly.
	var running []interval
	for _, w := range s.workers {
		jobs, err := w.jobs()
		if err != nil {
			return nil, err
		}
		busy := 0.0
		for _, j := range jobs {
			if j.Submitted.Before(start) || j.Finished.IsZero() {
				continue
			}
			running = append(running, interval{j.Started.UnixNano(), j.Finished.UnixNano()})
			busy += j.Finished.Sub(j.Started).Seconds()
		}
		it.WorkerBusy = append(it.WorkerBusy, busy)
	}
	addSpan(rec, sp.Context(), "engine.jobs", start, time.Duration(covered(running)),
		map[string]string{"jobs": fmt.Sprint(len(running)), "note": "union of the workers' job run intervals, laid at the start of the sweep"})
	return it, nil
}

func (s *sweepInstance) checks(iters []*iterResult) []checkResult {
	out := []checkResult{
		identicalArtifacts(iters),
		check("artifact_equals_single_process", iters[0].Artifact == s.coldArtifact,
			"sweep sha256 %s, single process %s", digest(iters[0].Artifact), digest(s.coldArtifact)),
	}
	units := check("every_unit_reported", true, "")
	clean := check("no_reassignment_no_dead_worker", true, "")
	for i, it := range iters {
		if it.Sweep.Units != s.units {
			units = check("every_unit_reported", false, "iteration %d: %d units reported, expansion has %d", i, it.Sweep.Units, s.units)
		}
		if it.Sweep.Reassigned != 0 || len(it.Sweep.Dead) != 0 || len(it.Sweep.Quarantined) != 0 {
			clean = check("no_reassignment_no_dead_worker", false, "iteration %d: %d reassigned, dead %v, quarantined %v",
				i, it.Sweep.Reassigned, it.Sweep.Dead, it.Sweep.Quarantined)
		}
	}
	return append(out, units, clean)
}

func (s *sweepInstance) rerunWarm(*iterResult) (float64, bool, error) { return 0, false, nil }

func (s *sweepInstance) resultCache(*iterResult) (*simcache.Cache, error) {
	return loadSnapshot(s.pristine)
}

func (s *sweepInstance) close() error {
	var first error
	for _, w := range s.workers {
		if err := w.stop(); err != nil && first == nil {
			first = err
		}
	}
	s.workers = nil
	return first
}
