// Package engine owns the execution lifecycle every racesim entry point
// used to re-implement: resolve options (parallelism, cache path, pprof
// profiles, seed), open and persist the shared simulation cache, build the
// experiment/scenario machinery, execute one typed Job — a single-config
// run, the validation pipeline, an experiment/scenario sweep, or a
// micro-benchmark suite inspection — and return a structured Result with
// the rendered artifact.
//
// The `racesim` subcommands are each a flag parser in front of one
// Execute call, and the long-lived HTTP server (server.go) submits the
// same Job type from a worker pool over one warm cache, so batch and
// service execution share every byte of lifecycle code. Every job streams
// its rendered artifact on stdout and its progress, timing and cache
// statistics on stderr, which is what keeps distributed sweep outputs
// byte-identical to the single-process run; Execute additionally captures
// both streams into the Result for callers (the server) that need them
// after the fact.
//
// A size a job leaves zero, or sets negative, is the paper set's:
// expt.DefaultWorkloadEvents, expt.DefaultBudgetRound1/2 and
// ubench.DefaultScale, each declared once.
// A validate job tunes through expt.Context.Stages, the pipeline behind
// Figs. 4–8, so at the sizes and seed of an experiments job it asks for
// exactly that job's simulations and traces, and answers from its cache.
package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"racesim/internal/prof"
	"racesim/internal/simcache"
	"racesim/internal/telemetry"
	"racesim/internal/tracememo"
	"racesim/internal/version"
)

// Job kinds. Each selects exactly one of the Job's spec fields.
const (
	KindRun         = "run"         // simulate workloads on one configuration
	KindValidate    = "validate"    // the full Fig. 1 validation pipeline
	KindExperiments = "experiments" // paper tables/figures + scenario sweeps
	KindUbench      = "ubench"      // Table I suite inspection/comparison
)

// Job is one typed unit of work the engine can execute. Kind selects the
// spec; the matching pointer field carries the job's own knobs (the
// lifecycle knobs — parallelism, cache, profiles — live in Options, so a
// server can impose them fleet-wide). The zero value of every spec field
// selects the same default the corresponding subcommand flag documents.
type Job struct {
	Kind        string          `json:"kind"`
	Run         *RunJob         `json:"run,omitempty"`
	Validate    *ValidateJob    `json:"validate,omitempty"`
	Experiments *ExperimentsJob `json:"experiments,omitempty"`
	Ubench      *UbenchJob      `json:"ubench,omitempty"`
	// Timeout bounds the job's execution as a Go duration string ("90s").
	// The serve worker pool enforces it (alongside any server-wide
	// ServerOptions.JobTimeout; the smaller wins); a job past its deadline
	// is cancelled and fails with context.DeadlineExceeded. Empty means no
	// per-job bound.
	Timeout string `json:"timeout,omitempty"`
}

// RunJob simulates one or more traces on one configuration — the classic
// `racesim run` (née cmd/racesim) invocation.
type RunJob struct {
	// Preset names a built-in config ("public-a53", "public-a72");
	// ConfigJSON is a configuration instead (`racesim run -config` reads
	// its file into it). Empty Preset defaults to public-a53.
	Preset     string          `json:"preset,omitempty"`
	ConfigJSON json.RawMessage `json:"config_json,omitempty"`
	// Ubench/Workload name traces to run: a single name, a comma-separated
	// list, or "all". TracePath replays a recorded RIFT file.
	Ubench    string  `json:"ubench,omitempty"`
	Workload  string  `json:"workload,omitempty"`
	TracePath string  `json:"trace_path,omitempty"`
	Events    int     `json:"events,omitempty"` // workload trace length (<=0: expt.DefaultWorkloadEvents)
	Scale     float64 `json:"scale,omitempty"`  // micro-benchmark scale factor (<=0: ubench.DefaultScale)
	Seed      int64   `json:"seed,omitempty"`   // workload generator seed
}

// ValidateJob runs the paper's full hardware-validation methodology for
// one core and reports the tuned configuration: the core's model of Figs.
// 4–8 (expt.Context.Stages) at the job's scale, budgets and seed. Every
// successful job renders the final model's statistical ValidationReport
// (correlation, RMSE, MAPE, confidence interval, p-value and budget
// pass/fail per suite and category, plus plausibility violations) into
// its artifact and carries the JSON in Result.Report, beside the tuned
// configuration in Result.TunedConfig.
type ValidateJob struct {
	Core    string  `json:"core,omitempty"`    // "a53" (default) or "a72"
	Budget1 int     `json:"budget1,omitempty"` // irace budget, round 1 (<=0: expt.DefaultBudgetRound1)
	Budget2 int     `json:"budget2,omitempty"` // irace budget, round 2 (<=0: expt.DefaultBudgetRound2)
	Scale   float64 `json:"scale,omitempty"`   // micro-benchmark scale factor (<=0: ubench.DefaultScale)
	Seed    int64   `json:"seed,omitempty"`    // run seed; the pipeline draws it plus the core's offset (expt.Context.Seed)
	Quiet   bool    `json:"quiet,omitempty"`   // suppress progress output
	// BudgetJSON holds the accuracy tolerances (`racesim validate
	// -budgets` reads its file into it); empty means none (the report
	// still carries every metric and passes).
	BudgetJSON json.RawMessage `json:"budget_json,omitempty"`
	// Gate makes a budget violation fail the job once the Result carries
	// the report and the tuned configuration — the CI accuracy gate.
	Gate bool `json:"gate,omitempty"`
}

// ExperimentsJob regenerates paper tables/figures and runs scenario
// sweeps through the scenario registry.
type ExperimentsJob struct {
	// Scenario selects what to run: comma-separated scenario names or
	// globs; "all", and empty, select the paper set.
	Scenario string `json:"scenario,omitempty"`
	// ListScenarios renders the registry listing instead of running.
	ListScenarios bool `json:"list_scenarios,omitempty"`
	// Units restricts the run to the named units of the expanded
	// selection (comma-separated unit IDs, e.g.
	// "fig4,budget-sweep-a53/budget=600"), preserving expansion order.
	// This is how the distributed sweep coordinator addresses one unit
	// per worker job.
	Units string `json:"units,omitempty"`
	// Manifest overlays scenarios from a JSON manifest on the registry;
	// SaveManifest writes the effective registry to a manifest and stops.
	Manifest     string  `json:"manifest,omitempty"`
	SaveManifest string  `json:"save_manifest,omitempty"`
	Scale        float64 `json:"scale,omitempty"`   // 0: ubench.DefaultScale
	Events       int     `json:"events,omitempty"`  // 0: expt.DefaultWorkloadEvents
	Budget1      int     `json:"budget1,omitempty"` // 0: expt.DefaultBudgetRound1
	Budget2      int     `json:"budget2,omitempty"` // 0: expt.DefaultBudgetRound2
	Seed         int64   `json:"seed,omitempty"`
	Quiet        bool    `json:"quiet,omitempty"`
}

// UbenchJob inspects the Table I micro-benchmark suite.
type UbenchJob struct {
	List bool `json:"list,omitempty"`
	// Dump records a benchmark's trace to DumpOut (default "bench.rift").
	Dump    string `json:"dump,omitempty"`
	DumpOut string `json:"dump_out,omitempty"`
	// Compare races a benchmark (or "all") between board and model.
	Compare string `json:"compare,omitempty"`
	// Disasm prints a benchmark's assembly listing.
	Disasm     string  `json:"disasm,omitempty"`
	Core       string  `json:"core,omitempty"`  // "a53" (default) or "a72"
	Scale      float64 `json:"scale,omitempty"` // <=0: ubench.DefaultScale
	InitArrays bool    `json:"init_arrays,omitempty"`
}

// Options are the lifecycle knobs shared by every job kind — exactly the
// flags the four standalone binaries each used to re-implement.
type Options struct {
	// Parallelism bounds concurrent simulations (<=0: GOMAXPROCS). Output
	// is byte-identical for any value.
	Parallelism int
	// CachePath names a binary snapshot persisting the simulation cache
	// across runs (simcache.Open): loaded when the job first needs its
	// cache, and saved on every way out of the job — finished, failed,
	// cancelled or panicked — so an interrupted job keeps what it
	// simulated and says so in its error. An experiments job also saves it
	// at unit boundaries. A job that adds nothing leaves the file alone,
	// and one that simulates nothing creates none. Ignored when Cache is
	// set (the cache owner handles persistence).
	CachePath string
	// Cache, when non-nil, is a pre-opened cache shared across jobs (the
	// serve worker pool's warm cache). The engine then neither loads nor
	// saves snapshots per job.
	Cache *simcache.Cache
	// TraceMemo, when non-nil, is the memo every job kind fetches its
	// generated inputs through (micro-benchmark, workload and lmbench
	// traces with their digests and decode-once forms, keyed by
	// generation parameters), shared across jobs: the serve worker pool
	// passes its process-lifetime one, so repeated job shapes — and the
	// units of one sweep, each a job of its own — skip emulation and
	// decode. Nil gives the job a private memo that dies with it: each
	// distinct input is still built once per job, and what it was is
	// remembered in the job's cache (tracememo.WithIdentities), so a later
	// job of the same build that finds its results in the cache's snapshot
	// generates nothing.
	TraceMemo *tracememo.Memo
	// CPUProfile/MemProfile write pprof profiles around the job.
	CPUProfile, MemProfile string
	// Stdout/Stderr receive the job's streamed output; nil discards the
	// stream (unless Capture retains it).
	Stdout, Stderr io.Writer
	// Capture additionally retains both streams in the Result
	// (Artifact/Log) — what the server stores per job. Batch callers that
	// stream to the terminal and discard the Result leave it off, so a
	// long sweep's artifact is not duplicated in memory.
	Capture bool
	// Trace, when valid, is the parent span context of this execution
	// (the serve worker's run span). The engine then records an engine
	// span (with a simcache child carrying the job's cache activity) into
	// Result.Spans and threads the context through ctx, so a distributed
	// sweep's flight recorder sees coordinator → worker → engine →
	// simcache as one tree. Zero disables span recording entirely —
	// tracing is strictly additive and never changes job output.
	Trace telemetry.SpanContext

	// faultHook, when non-nil, runs at the start of every job inside the
	// panic-recovery scope: tests set it to panic (the recovery path),
	// block on the context (deadlines and cancellation) or fail the job.
	faultHook func(ctx context.Context) error
}

// PanicError wraps a panic recovered from job execution. Jobs run
// arbitrary simulation code on server worker goroutines; a panic there
// must fail the one job — with its stack preserved in the job log — not
// the process. errors.As-able so callers can distinguish "the job
// panicked" from ordinary failures.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() captured at the recovery point
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job panicked: %v", e.Value)
}

// Result is what a job execution produced.
type Result struct {
	Kind string `json:"kind"`
	// Artifact is every byte the job wrote to stdout — the rendered
	// tables/figures, batch summary rows, or registry listing. It is
	// byte-identical to the historical standalone binary's stdout (what
	// `racesim experiments -out` writes). Populated only under
	// Options.Capture.
	Artifact string `json:"artifact"`
	// Log is every byte the job wrote to stderr (progress, timing, cache
	// statistics — never part of the artifact). Populated only under
	// Options.Capture.
	Log string `json:"log,omitempty"`
	// TunedConfig carries the tuned configuration JSON of a validate job
	// (what `racesim validate -out` writes).
	TunedConfig json.RawMessage `json:"tuned_config,omitempty"`
	// Report carries a validate job's ValidationReport JSON (see
	// internal/report for the schema; `racesim validate -report-dir`
	// writes it).
	Report json.RawMessage `json:"report,omitempty"`
	// CacheStats snapshots the simulation cache after the job. Under a
	// shared cache the counters are cumulative across jobs.
	CacheStats simcache.Stats `json:"cache_stats"`
	Elapsed    time.Duration  `json:"elapsed_ns"`
	// Spans carries the execution's finished trace spans when
	// Options.Trace was set (worker job/queue/run spans plus the engine
	// and simcache spans recorded here). They travel back to the sweep
	// coordinator inside the job result and land in the flight recorder.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// env threads the resolved lifecycle state through a job execution.
type env struct {
	ctx    context.Context
	par    int
	cache  *simcache.Cache
	memo   *tracememo.Memo // the caller's, or private to this job
	traces tracememo.Stats // memo's counters when the job started
	path   string          // snapshot to load and save; "" when the caller owns the cache
	snap   *simcache.Snapshot

	out, errw      io.Writer
	outBuf, errBuf bytes.Buffer
	errMu          sync.Mutex // the units of an experiments job log at once

	tunedConfig json.RawMessage
	report      json.RawMessage
}

func (e *env) printf(format string, args ...any) {
	fmt.Fprintf(e.out, format, args...)
}

func (e *env) eprintf(format string, args ...any) {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	fmt.Fprintf(e.errw, format, args...)
}

// traceSummary reports on stderr, beside the cache summary, how many input
// traces the job asked its memo for and how many of them had to be
// generated (under a memo shared with concurrent jobs, theirs included).
func (e *env) traceSummary() {
	st := e.memo.Stats()
	e.eprintf("traces: %d requested, %d generated\n",
		st.Hits+st.Misses-e.traces.Hits-e.traces.Misses, st.Generated-e.traces.Generated)
}

// workSummary reports on stderr, beside the cache summary, the work the
// cache's misses did: simulations run and trace events stepped, by core
// kind. Under a shared cache, like the cache summary, it counts across jobs.
func (e *env) workSummary() {
	e.eprintf("work: %s\n", e.cache.Stats().Work())
}

// buildID names the running build, the scope of the trace identities a
// memo keeps in a cache. A variable so a test can run a job as another
// build.
var buildID = version.BuildID

// tee resolves a job output stream: teed into buf when capturing,
// discarded when there is neither a stream writer nor a capture.
func tee(w io.Writer, buf *bytes.Buffer, capture bool) io.Writer {
	switch {
	case capture && w != nil:
		return io.MultiWriter(w, buf)
	case capture:
		return buf
	case w != nil:
		return w
	default:
		return io.Discard
	}
}

// Check verifies the job names exactly the spec its kind requires: any
// populated spec field must be the one matching Kind, so a mislabeled
// job fails loudly instead of silently running the kind's defaults.
func (j Job) Check() error {
	switch j.Kind {
	case KindRun, KindValidate, KindExperiments, KindUbench:
	case "":
		return fmt.Errorf("engine: job has no kind (want one of run, validate, experiments, ubench)")
	default:
		return fmt.Errorf("engine: unknown job kind %q (want one of run, validate, experiments, ubench)", j.Kind)
	}
	for _, spec := range []struct {
		kind string
		set  bool
	}{
		{KindRun, j.Run != nil},
		{KindValidate, j.Validate != nil},
		{KindExperiments, j.Experiments != nil},
		{KindUbench, j.Ubench != nil},
	} {
		if spec.set && spec.kind != j.Kind {
			return fmt.Errorf("engine: job kind %q carries a %q spec (want the %q spec or none)", j.Kind, spec.kind, j.Kind)
		}
	}
	if j.Timeout != "" {
		d, err := time.ParseDuration(j.Timeout)
		if err != nil {
			return fmt.Errorf("engine: job timeout: %v", err)
		}
		if d <= 0 {
			return fmt.Errorf("engine: job timeout %q is not positive", j.Timeout)
		}
	}
	return nil
}

// CheckServerSafe rejects jobs that would read or write the server
// host's filesystem. The HTTP API is unauthenticated, so path-valued
// fields are batch-only: a network client could otherwise write trace or
// manifest bytes to any server path (dump_out, save_manifest) or probe
// server files (trace_path, manifest, dump). A job's other inputs are
// inline (config_json, budget_json) and its outputs are the Result's.
func (j Job) CheckServerSafe() error {
	var fields []string
	add := func(field, v string) {
		if v != "" {
			fields = append(fields, field)
		}
	}
	if j.Run != nil {
		add("run.trace_path", j.Run.TracePath)
	}
	if j.Experiments != nil {
		add("experiments.manifest", j.Experiments.Manifest)
		add("experiments.save_manifest", j.Experiments.SaveManifest)
	}
	if j.Ubench != nil {
		add("ubench.dump", j.Ubench.Dump)
		add("ubench.dump_out", j.Ubench.DumpOut)
	}
	if len(fields) > 0 {
		return fmt.Errorf("engine: job touches server-side files via %s; these fields are batch-only (use inline fields like config_json, and read outputs from the result)",
			strings.Join(fields, ", "))
	}
	return nil
}

// Execute runs one job under the resolved options and returns its result.
// On error the returned Result still carries whatever output the job
// produced before failing (it is never nil).
func Execute(job Job, opts Options) (*Result, error) {
	return ExecuteContext(context.Background(), job, opts)
}

// ExecuteContext is Execute with cancellation: when ctx is cancelled (a
// client DELETEd the job, a server-enforced deadline expired, the sweep
// was aborted), execution stops at the next unit/stage/iteration boundary
// and the job fails with ctx.Err(). Long-running simulation loops check
// the context between units — cancellation latency is bounded by one
// simulation batch, not the whole job. A panic anywhere inside job
// execution is recovered into a *PanicError instead of crashing the
// caller's goroutine; the Result still carries everything the job wrote
// before panicking.
func ExecuteContext(ctx context.Context, job Job, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Trace.Valid() {
		// Thread the trace through the execution context so deeper layers
		// can read it.
		ctx = telemetry.ContextWithSpan(ctx, opts.Trace)
	}
	res := &Result{Kind: job.Kind}
	e := &env{
		ctx:   ctx,
		par:   opts.Parallelism,
		cache: opts.Cache,
		memo:  opts.TraceMemo,
		path:  opts.CachePath,
	}
	if e.par <= 0 {
		e.par = runtime.GOMAXPROCS(0)
	}
	if e.cache == nil {
		e.cache = simcache.New()
	} else {
		e.path = ""
	}
	if e.memo == nil {
		e.memo = tracememo.New(0, 0).WithIdentities(e.cache.TraceIdentities(buildID()))
	}
	e.traces = e.memo.Stats()
	e.out = tee(opts.Stdout, &e.outBuf, opts.Capture)
	e.errw = tee(opts.Stderr, &e.errBuf, opts.Capture)

	cacheBefore := e.cache.Stats()
	start := time.Now()
	err := job.Check()
	if err == nil {
		err = prof.Run(opts.CPUProfile, opts.MemProfile, func() (jobErr error) {
			defer func() {
				if r := recover(); r != nil {
					jobErr = &PanicError{Value: r, Stack: debug.Stack()}
				}
			}()
			if opts.faultHook != nil {
				if err := opts.faultHook(ctx); err != nil {
					return err
				}
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			switch job.Kind {
			case KindRun:
				return e.runJob(job.Run)
			case KindValidate:
				return e.validateJob(job.Validate)
			case KindExperiments:
				return e.experimentsJob(job.Experiments)
			case KindUbench:
				return e.ubenchJob(job.Ubench)
			}
			panic("unreachable: job validated")
		})
	}
	err = e.snap.Close(err)
	res.Artifact = e.outBuf.String()
	res.Log = e.errBuf.String()
	res.TunedConfig = e.tunedConfig
	res.Report = e.report
	res.CacheStats = e.cache.Stats()
	res.Elapsed = time.Since(start)
	if opts.Trace.Valid() {
		res.Spans = engineSpans(opts.Trace, job, start, res.Elapsed, cacheBefore, res.CacheStats, err)
	}
	return res, err
}

// engineSpans builds the engine-level span pair for one traced
// execution: an "engine" span under the caller's parent (the serve
// worker's run span) and a "simcache" child summarizing the cache
// activity observed across the job. Under a shared cache the deltas may
// include concurrent jobs' lookups — they are an activity summary, not
// an exact attribution (see docs/observability.md).
func engineSpans(parent telemetry.SpanContext, job Job, start time.Time, elapsed time.Duration, before, after simcache.Stats, err error) []telemetry.Span {
	eng := telemetry.Span{
		Trace:      parent.Trace,
		ID:         telemetry.NewID(),
		Parent:     parent.Span,
		Name:       "engine",
		Start:      start,
		DurationNS: elapsed.Nanoseconds(),
		Attrs:      map[string]string{"kind": job.Kind},
	}
	if err != nil {
		eng.Attrs["error"] = err.Error()
	}
	var d simcache.Stats
	d.AddDelta(after, before)
	sc := telemetry.Span{
		Trace:      parent.Trace,
		ID:         telemetry.NewID(),
		Parent:     eng.ID,
		Name:       "simcache",
		Start:      start,
		DurationNS: elapsed.Nanoseconds(),
		Attrs: map[string]string{
			"hits":    fmt.Sprint(d.Hits),
			"misses":  fmt.Sprint(d.Misses),
			"shared":  fmt.Sprint(d.Shared),
			"entries": fmt.Sprint(d.Entries),
		},
	}
	return []telemetry.Span{eng, sc}
}

// openSnapshot opens the job's cache file, if it has one (simcache.Open),
// at the point where the job first needs its cache. Warnings go to stderr
// under the job's historical prefix; note is where the job reports loads
// and saves. ExecuteContext closes the snapshot on every way out of the
// job, so a failed or interrupted job keeps what it simulated.
func (e *env) openSnapshot(prefix string, note func(format string, args ...any)) (err error) {
	e.snap, err = simcache.Open(e.cache, e.path, func(format string, args ...any) {
		e.eprintf(prefix+": "+format+"\n", args...)
	}, note)
	return err
}
