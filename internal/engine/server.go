package engine

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"racesim/internal/scenario"
	"racesim/internal/simcache"
	"racesim/internal/telemetry"
	"racesim/internal/tracememo"
	"racesim/internal/version"
)

// ServerOptions configures a long-lived job server.
type ServerOptions struct {
	// Parallelism bounds concurrent simulations within one job (<=0:
	// GOMAXPROCS).
	Parallelism int
	// Workers is the number of jobs executing concurrently (default 1 —
	// jobs already fan their simulation units across Parallelism cores).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; a full
	// queue answers 429 with a Retry-After header (default 64). 503 means
	// the server is draining.
	QueueDepth int
	// CachePath, when set, warms the shared simulation cache from a
	// snapshot at startup (simcache.Open) and saves it once, in Drain,
	// whether the drain finished or was aborted, so a restarted server
	// answers repeated jobs from disk-warm state. A server that added
	// nothing leaves the file alone. The snapshot is attached mmap-backed:
	// startup parses only its index, and a record is decoded each time it
	// is asked for, never kept — the server's memory does not grow with its
	// hits. Jobs never save it themselves.
	CachePath string
	// MemoryBudget, when > 0, bounds what the server holds in memory to
	// roughly this many bytes, half for results (LRU eviction, see
	// simcache.SetMemoryBudget) and half for the traces the memo keeps
	// for run, validate, experiments and ubench jobs alike. Zero leaves
	// both unbounded.
	MemoryBudget int64
	// JobTimeout is the server-enforced deadline on every job (0: none).
	// A job also carrying its own Job.Timeout runs under the smaller of
	// the two. A job past its deadline is cancelled (context threading
	// stops it within one simulation batch), fails with
	// context.DeadlineExceeded and releases its worker slot.
	JobTimeout time.Duration
	// Log receives server lifecycle lines (startup, drain, job
	// transitions); nil discards them.
	Log func(format string, args ...any)

	// faultHook is passed to every job execution (Options.faultHook);
	// tests set it to panic or stall a job.
	faultHook func(ctx context.Context) error
}

// JobStatus is the externally visible state of a submitted job.
type JobStatus struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Status    string    `json:"status"` // queued | running | done | failed | cancelled
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Progress is the tail of the job's stderr stream (most recent last),
	// the live view of a running sweep.
	Progress []string `json:"progress,omitempty"`
	Error    string   `json:"error,omitempty"`
	// Result is set once Status is done or failed (a failed job still
	// carries whatever output it produced).
	Result *Result `json:"result,omitempty"`
}

// jobState is the server-side record behind a JobStatus.
type jobState struct {
	id  string
	job Job
	// ring is the job's stderr line buffer (see progressRing); it also
	// fans completed lines out to SSE subscribers. It has its own lock
	// and is written without holding mu.
	ring *progressRing
	// trace is the submitter's span context (X-Racesim-Trace), zero when
	// the job was submitted untraced.
	trace telemetry.SpanContext

	mu        sync.Mutex
	status    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	result    *Result
	// cancelled is set by DELETE /v1/jobs/{id}; cancel (non-nil while the
	// job runs) aborts the execution context.
	cancelled bool
	cancel    context.CancelFunc
	// subs are the live SSE subscriber channels; subsClosed marks the
	// terminal state event as already fanned out (late subscribers get
	// the replay only).
	subs       map[chan jobEvent]struct{}
	subsClosed bool
}

func (st *jobState) snapshot(includeResult bool) JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	progress, _ := st.ring.LinesSeq()
	out := JobStatus{
		ID:        st.id,
		Kind:      st.job.Kind,
		Status:    st.status,
		Submitted: st.submitted,
		Started:   st.started,
		Finished:  st.finished,
		Progress:  progress,
	}
	if st.err != nil {
		out.Error = st.err.Error()
	}
	if includeResult {
		out.Result = st.result
	}
	return out
}

// Server accepts jobs over HTTP and executes them on a bounded worker
// pool against one shared, process-lifetime simulation cache — the warm
// state a batch run rebuilds from disk every invocation.
type Server struct {
	opts  ServerOptions
	cache *simcache.Cache
	snap  *simcache.Snapshot // CachePath, opened at start and saved by Drain
	memo  *tracememo.Memo    // trace memo shared by every job
	log   func(format string, args ...any)

	// keepLog and keepJobs are progressLines and finishedJobs; only tests
	// set other values.
	keepLog, keepJobs int

	// metrics is the server's telemetry registry (GET /metrics); build is
	// the identity it reports there and on /healthz; sseStreams counts
	// open event streams.
	metrics    *telemetry.Registry
	build      version.Info
	sseStreams atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*jobState
	order    []string
	done     []string // finished job ids, completion order (eviction queue)
	seq      int
	draining bool
	// deltaMark is the delta-export baseline: the cache's store sequence
	// (simcache.Cache.Mark) when the last snapshot import or missing-key
	// exchange began, or at startup. GET /v1/cache/snapshot?delta=1
	// exports only what jobs stored after it — never what an import
	// stored — so a sweep coordinator collecting worker deltas does not
	// re-download what it seeded, and still gets a result a job stored
	// while an import was in progress.
	deltaMark uint64

	queue chan *jobState
	wg    sync.WaitGroup
}

const (
	// progressLines bounds each job's progress ring (JobStatus.Progress).
	progressLines = 50
	// finishedJobs bounds the finished jobs, full results included, kept
	// for GET /v1/jobs/{id}; beyond it the oldest finished job is evicted
	// and answers 404. Queued and running jobs are never evicted.
	finishedJobs = 256
)

// NewServer builds a server, warms the shared cache from CachePath (if
// set) and starts the worker pool.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	log := opts.Log
	if log == nil {
		log = func(string, ...any) {}
	}
	s := &Server{
		opts:     opts,
		cache:    simcache.New(),
		log:      log,
		keepLog:  progressLines,
		keepJobs: finishedJobs,
		jobs:     map[string]*jobState{},
		queue:    make(chan *jobState, opts.QueueDepth),
		metrics:  telemetry.NewRegistry(),
		build:    buildInfo,
	}
	// One process-lifetime trace memo shared by every job of every kind:
	// repeated job shapes — and the units of a sweep, each an experiments
	// job of its own — skip emulation and decode, and what a pre-seeded or
	// loaded snapshot says this build generated before is not generated
	// again.
	s.memo = tracememo.New(opts.MemoryBudget/2, 0).WithIdentities(s.cache.TraceIdentities(buildID()))
	if opts.MemoryBudget > 0 {
		// Split the budget between the two byte-bounded tiers: results
		// (simcache) and generated traces (tracememo).
		s.cache.SetMemoryBudget(opts.MemoryBudget / 2)
		log("serve: memory budget %d MiB (results %d MiB, traces %d MiB)",
			opts.MemoryBudget>>20, (opts.MemoryBudget/2)>>20, (opts.MemoryBudget/2)>>20)
	}
	serveLog := func(format string, args ...any) { log("serve: "+format, args...) }
	snap, err := simcache.Open(s.cache, opts.CachePath, serveLog, serveLog)
	if err != nil {
		return nil, err
	}
	s.snap = snap
	s.deltaMark = s.cache.Mark()
	s.registerMetrics()
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Cache exposes the shared warm cache (tests, drain-time stats).
func (s *Server) Cache() *simcache.Cache { return s.cache }

// QueueLen reports the number of queued-but-not-running jobs.
func (s *Server) QueueLen() int { return len(s.queue) }

func (s *Server) worker() {
	defer s.wg.Done()
	for st := range s.queue {
		st.mu.Lock()
		if st.cancelled {
			// Cancelled while still queued (the cancel handler already
			// marked it terminal); drain the slot without running anything.
			st.mu.Unlock()
			s.retire(st.id)
			s.log("serve: job %s (%s) cancelled before start", st.id, st.job.Kind)
			continue
		}
		timeout := s.effectiveTimeout(st.job)
		ctx, cancel := context.WithCancel(context.Background())
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), timeout)
		}
		st.cancel = cancel
		st.status = "running"
		st.started = time.Now()
		st.mu.Unlock()
		st.notifyState()
		s.log("serve: job %s (%s) running", st.id, st.job.Kind)

		// A traced job gets the worker-side span skeleton: a job span
		// parented under the submitter's context, with queue and run
		// children. The engine parents its own spans under the run span.
		opts := Options{
			Parallelism: s.opts.Parallelism,
			Cache:       s.cache,
			TraceMemo:   s.memo,
			Stderr:      st.ring, // live progress ring
			Capture:     true,    // the stored Result is the job's only output
			faultHook:   s.opts.faultHook,
		}
		var jobSpanID, queueSpanID, runSpanID string
		if st.trace.Valid() {
			jobSpanID, queueSpanID, runSpanID = telemetry.NewID(), telemetry.NewID(), telemetry.NewID()
			opts.Trace = telemetry.SpanContext{Trace: st.trace.Trace, Span: runSpanID}
		}

		// ExecuteContext recovers job panics into a *PanicError, so a
		// panicking simulation fails one job — with its stack preserved
		// below — instead of killing this worker goroutine (and, once every
		// worker died, silently wedging the whole queue).
		res, err := ExecuteContext(ctx, st.job, opts)
		cancel()

		var pe *PanicError
		if errors.As(err, &pe) {
			// The stack goes through the ring writer, so GET /v1/jobs/{id}
			// shows where the job died without the operator grepping server
			// logs.
			st.ring.Write([]byte(fmt.Sprintf("panic: %v\n%s", pe.Value, pe.Stack)))
		}
		// Promote any unterminated trailing output into the ring before the
		// terminal snapshot is taken.
		st.ring.Flush()
		st.mu.Lock()
		st.cancel = nil
		st.finished = time.Now()
		st.result = res
		st.err = err
		switch {
		case err == nil:
			st.status = "done"
		case st.cancelled && errors.Is(err, context.Canceled):
			st.status = "cancelled"
		case errors.Is(err, context.DeadlineExceeded):
			st.status = "failed"
			st.err = fmt.Errorf("job exceeded its %v deadline: %w", timeout, err)
		default:
			st.status = "failed"
		}
		kind, status := st.job.Kind, st.status
		wait := st.started.Sub(st.submitted)
		run := st.finished.Sub(st.started)
		if st.trace.Valid() {
			spans := []telemetry.Span{
				{
					Trace: st.trace.Trace, ID: jobSpanID, Parent: st.trace.Span,
					Name: "job", Start: st.submitted,
					DurationNS: st.finished.Sub(st.submitted).Nanoseconds(),
					Attrs:      map[string]string{"id": st.id, "kind": kind, "status": status},
				},
				{
					Trace: st.trace.Trace, ID: queueSpanID, Parent: jobSpanID,
					Name: "queue", Start: st.submitted,
					DurationNS: wait.Nanoseconds(),
				},
				{
					Trace: st.trace.Trace, ID: runSpanID, Parent: jobSpanID,
					Name: "run", Start: st.started,
					DurationNS: run.Nanoseconds(),
				},
			}
			res.Spans = append(spans, res.Spans...)
		}
		st.mu.Unlock()
		s.retire(st.id)
		s.jobCounters(kind, status, wait.Seconds(), run.Seconds())
		st.notifyState()
		s.log("serve: job %s (%s) %s in %v", st.id, st.job.Kind, status, res.Elapsed.Round(time.Millisecond))
	}
}

// effectiveTimeout resolves the deadline for one job: the smaller of the
// server-wide JobTimeout and the job's own Timeout (0 = unbounded). The
// job's duration string was validated at submit time.
func (s *Server) effectiveTimeout(job Job) time.Duration {
	timeout := s.opts.JobTimeout
	if job.Timeout != "" {
		if d, err := time.ParseDuration(job.Timeout); err == nil && d > 0 && (timeout == 0 || d < timeout) {
			timeout = d
		}
	}
	return timeout
}

// retire records a finished job and evicts the oldest finished jobs
// beyond keepJobs, bounding what a long-lived server retains (every
// result holds a full artifact and captured log). In-flight jobs are
// untouched: only ids pushed here are ever evicted.
func (s *Server) retire(finishedID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = append(s.done, finishedID)
	for len(s.done) > s.keepJobs {
		old := s.done[0]
		s.done = s.done[1:]
		delete(s.jobs, old)
		// Prune the listing order too, or it grows with every job ever
		// submitted over the server's lifetime. After pruning, s.order is
		// bounded by queued+running+keepJobs, so the scan is cheap.
		for i, id := range s.order {
			if id == old {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// Submission failures that mean "retry later", not "bad job". The HTTP
// layer maps ErrQueueFull to 429 with a Retry-After header (transient
// back-pressure the Client resubmits through) and ErrDraining to 503
// (the server is going away for good).
var (
	ErrDraining  = errors.New("engine: server is draining")
	ErrQueueFull = errors.New("engine: job queue is full")
)

// Submit validates and enqueues a job, returning its ID. It fails with
// ErrDraining once Drain has started and ErrQueueFull beyond QueueDepth.
func (s *Server) Submit(job Job) (string, error) {
	return s.SubmitTraced(job, telemetry.SpanContext{})
}

// SubmitTraced is Submit carrying the submitter's span context (the
// X-Racesim-Trace header on POST /v1/jobs). A valid context makes the
// job record worker and engine spans into its Result; the zero context
// submits untraced.
func (s *Server) SubmitTraced(job Job, sc telemetry.SpanContext) (string, error) {
	if err := job.Check(); err != nil {
		return "", err
	}
	if err := job.CheckServerSafe(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", ErrDraining
	}
	s.seq++
	st := &jobState{
		id:        fmt.Sprintf("job-%06d", s.seq),
		job:       job,
		status:    "queued",
		submitted: time.Now(),
		trace:     sc,
	}
	st.ring = newProgressRing(s.keepLog, func(line string, seq int64) {
		st.notify(jobEvent{Kind: "progress", Data: line, Seq: seq})
	})
	select {
	case s.queue <- st:
	default:
		s.seq--
		s.mu.Unlock()
		return "", fmt.Errorf("%w (%d pending)", ErrQueueFull, cap(s.queue))
	}
	s.jobs[st.id] = st
	s.order = append(s.order, st.id)
	s.mu.Unlock()
	s.metrics.Counter("racesim_jobs_submitted_total",
		"Jobs accepted onto the queue, by kind.",
		telemetry.L("kind", job.Kind)).Inc()
	s.log("serve: job %s (%s) queued", st.id, job.Kind)
	return st.id, nil
}

// Drain stops accepting new jobs, waits for queued and running jobs to
// finish (or ctx to expire), and saves the shared cache snapshot either
// way. It is the SIGTERM path of `racesim serve` and safe to call once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("engine: already draining")
	}
	s.draining = true
	s.mu.Unlock()
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// An aborted or timed-out drain saves too: the write is atomic and
		// the cache concurrency-safe, so saving while a job is still
		// mid-flight loses nothing already computed.
		err = ctx.Err()
	}
	if err := s.snap.Close(err); err != nil {
		return err
	}
	s.log("serve: drained")
	return nil
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs              submit a Job (JSON body), 202 + {"id": ...}
//	GET  /v1/jobs              list job statuses (no results)
//	GET  /v1/jobs/{id}         one job's status, result included when done
//	GET  /v1/jobs/{id}/events  live job events (Server-Sent Events stream)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET  /v1/scenarios         the scenario registry with unit counts
//	GET  /v1/cache/snapshot    the shared cache as a binary snapshot (?delta=1)
//	POST /v1/cache/snapshot    merge a binary snapshot (pre-seed)
//	POST /v1/cache/missing     which of these key hashes the cache lacks
//	GET  /healthz              liveness + queue/cache statistics + build info
//	GET  /metrics              Prometheus text-format metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/cache/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("POST /v1/cache/snapshot", s.handleSnapshotPut)
	mux.HandleFunc("POST /v1/cache/missing", s.handleCacheMissing)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var job Job
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad job: %v", err)})
		return
	}
	id, err := s.SubmitTraced(job, telemetry.ParseHeader(r.Header.Get(telemetry.TraceHeader)))
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			// A full queue is back-pressure, not an outage: tell the client
			// when to come back. Job runtimes are seconds-to-minutes, so a
			// short hint keeps well-behaved clients from hammering the
			// endpoint without stalling them long past the next free slot.
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		case errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		URL    string `json:"url"`
	}{ID: id, Status: "queued", URL: "/v1/jobs/" + id})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	states := make([]*jobState, 0, len(s.order))
	for _, id := range s.order {
		// Submission order, minus evicted (retired) finished jobs.
		if st, ok := s.jobs[id]; ok {
			states = append(states, st)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(states))
	for _, st := range states {
		out = append(out, st.snapshot(false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(r *http.Request) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[r.PathValue("id")]
	return st, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st.snapshot(true))
}

// handleCancel implements DELETE /v1/jobs/{id}. A queued job flips to
// "cancelled" immediately (the worker drains and discards it); a running
// job has its context cancelled and reports "cancelling" until the
// execution unwinds to the next cancellation boundary, at which point the
// worker records "cancelled" and the slot is free. Cancelling a finished
// job is a conflict, not an idempotent no-op: the caller learns the job
// already ran to completion.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	st.mu.Lock()
	status := st.status
	switch status {
	case "queued":
		st.cancelled = true
		st.status = "cancelled"
		st.finished = time.Now()
		st.err = context.Canceled
		status = "cancelled"
	case "running":
		st.cancelled = true
		if st.cancel != nil {
			st.cancel()
		}
		status = "cancelling"
	default: // done | failed | cancelled
		st.mu.Unlock()
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job is already %s", status)})
		return
	}
	st.mu.Unlock()
	if status == "cancelled" {
		// Cancelled while queued: that was the terminal transition — close
		// any event streams with the final state.
		st.notifyState()
	}
	s.log("serve: job %s (%s) cancel requested (%s)", st.id, st.job.Kind, status)
	writeJSON(w, http.StatusAccepted, struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}{ID: st.id, Status: status})
}

// ScenarioInfo is one row of GET /v1/scenarios.
type ScenarioInfo struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Units       int    `json:"units"`
	Description string `json:"description,omitempty"`
	Paper       bool   `json:"paper"` // part of the reserved "all" selection
}

// Scenarios lists specs with their expanded unit counts: GET /v1/scenarios
// lists the registry — what an HTTP client needs to compose an experiments
// job — and `experiments -list-scenarios` prints the same rows.
func Scenarios(specs []scenario.Spec) ([]ScenarioInfo, error) {
	units, err := scenario.Expand(specs)
	if err != nil {
		return nil, err
	}
	perScenario := map[string]int{}
	for _, u := range units {
		perScenario[u.Scenario]++
	}
	paper := map[string]bool{}
	for _, name := range scenario.PaperSet(specs) {
		paper[name] = true
	}
	out := make([]ScenarioInfo, 0, len(specs))
	for _, sp := range specs {
		out = append(out, ScenarioInfo{
			Name:        sp.Name,
			Kind:        sp.Kind,
			Units:       perScenario[sp.Name],
			Description: sp.Description,
			Paper:       paper[sp.Name],
		})
	}
	return out, nil
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	infos, err := Scenarios(scenario.Registry())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, infos)
}

// Health is the GET /healthz response — liveness plus the queue and
// shared-cache statistics a sweep coordinator samples around a round to
// report cluster-wide cache effectiveness.
type Health struct {
	Status  string          `json:"status"` // ok | draining
	Queued  int             `json:"queued"`
	Jobs    int             `json:"jobs"`
	Workers int             `json:"workers"`
	Cache   simcache.Stats  `json:"cache"`
	Traces  tracememo.Stats `json:"traces"` // trace-memo effectiveness
	Build   version.Info    `json:"build"`  // which build answered
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	total := len(s.order)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Health{
		Status: map[bool]string{false: "ok", true: "draining"}[draining],
		Queued: len(s.queue), Jobs: total, Workers: s.opts.Workers,
		Cache: s.cache.Stats(), Traces: s.memo.Stats(),
		Build: s.build,
	})
}

// retryAfterSeconds is the Retry-After hint on queue-full 429 responses.
const retryAfterSeconds = 2

// SnapshotReport is the POST /v1/cache/snapshot response.
type SnapshotReport struct {
	Added    int    `json:"added"`    // new entries merged in
	Replaced int    `json:"replaced"` // entries overwritten (last-writer-wins)
	Rejected uint64 `json:"rejected"` // entries failing their checksum
	Entries  int    `json:"entries"`  // cache size after the import
}

// handleSnapshotGet serves the shared cache as a binary snapshot (the
// SaveFile format). ?delta=1 restricts it to what jobs stored since the
// last import/startup baseline — what this worker contributed. Records
// stream straight to the response: the serialized snapshot never exists
// in server memory.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	write := s.cache.WriteBinaryTo
	if q := r.URL.Query().Get("delta"); q != "" {
		delta, err := strconv.ParseBool(q)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("delta=%q: want a boolean", q)})
			return
		}
		if delta {
			s.mu.Lock()
			mark := s.deltaMark
			s.mu.Unlock()
			write = func(w io.Writer) error { return s.cache.WriteDeltaTo(w, mark) }
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := write(w); err != nil {
		// Headers are gone; all we can do is log and cut the stream so
		// the client sees a truncated (salvageable, checksummed) body
		// rather than a silently short one.
		s.log("serve: cache: snapshot export failed mid-stream: %v", err)
	}
}

// handleSnapshotPut merges a posted snapshot into the shared cache
// (checksum-verified, last-writer-wins) and moves the delta baseline to
// the store sequence the import began at — the coordinator's pre-seed path
// that makes a fresh worker warm. The body merges record by record off the
// socket; the snapshot is never buffered whole.
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	before := s.cache.Stats().Rejected
	mark := s.cache.Mark()
	added, replaced, err := s.cache.LoadStream(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	s.mu.Lock()
	s.deltaMark = mark
	s.mu.Unlock()
	st := s.cache.Stats()
	s.log("serve: cache: imported snapshot (%d added, %d replaced, %d rejected)",
		added, replaced, st.Rejected-before)
	writeJSON(w, http.StatusOK, SnapshotReport{
		Added:    added,
		Replaced: replaced,
		Rejected: st.Rejected - before,
		Entries:  st.Entries,
	})
}

// missingReport is the POST /v1/cache/missing response.
type missingReport struct {
	// Missing are the positions, ascending, of the posted key hashes the
	// worker's cache cannot serve.
	Missing []int `json:"missing"`
}

// handleCacheMissing answers which of the posted key hashes — the 8-byte
// little-endian index hashes of a snapshot's records (Cache.KeyHashes),
// ascending and without repeats — the shared cache lacks, and moves the
// delta baseline as an import does: a sweep coordinator asks before it
// pre-seeds this worker and then sends only those records, or none. A body
// that is not such a list answers 400 and moves nothing.
func (s *Server) handleCacheMissing(w http.ResponseWriter, r *http.Request) {
	mark := s.cache.Mark()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if len(body)%8 != 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("%d bytes is not a list of 8-byte key hashes", len(body))})
		return
	}
	hashes := make([]uint64, len(body)/8)
	for i := range hashes {
		hashes[i] = binary.LittleEndian.Uint64(body[8*i:])
		if i > 0 && hashes[i] <= hashes[i-1] {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("key hash %d is not above the one before it", i)})
			return
		}
	}
	missing := s.cache.Missing(hashes)
	s.mu.Lock()
	s.deltaMark = mark
	s.mu.Unlock()
	s.log("serve: cache: lacks %d of %d offered records", len(missing), len(hashes))
	writeJSON(w, http.StatusOK, missingReport{Missing: missing})
}

// maxSnapshotBytes bounds a posted cache snapshot (the job body bound is
// 1 MiB; snapshots are legitimately much larger).
const maxSnapshotBytes = 256 << 20
