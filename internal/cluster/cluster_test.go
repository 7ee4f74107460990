package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"racesim/internal/chaos"
	"racesim/internal/cluster"
	"racesim/internal/core"
	"racesim/internal/engine"
	"racesim/internal/simcache"
	"racesim/internal/telemetry"
)

// tinyArgs are the seconds-scale sweep parameters CI's smoke jobs use.
const (
	tinyScale   = 0.002
	tinyEvents  = 4000
	tinyBudget  = 250
	tinySelect  = "table1,table2,fig2"
	tinyTimeout = 2 * time.Minute
)

// startWorker runs an in-process serve worker and returns its URL.
func startWorker(t *testing.T) (*engine.Server, *httptest.Server) {
	t.Helper()
	srv, err := engine.NewServer(engine.ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), tinyTimeout)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, ts
}

var batchArtifacts sync.Map // selection -> artifact

// batchArtifact renders the selection in-process, unsharded — the bytes
// the sweep must reproduce. Each selection renders once per test binary.
func batchArtifact(t *testing.T, selection string) string {
	t.Helper()
	if art, ok := batchArtifacts.Load(selection); ok {
		return art.(string)
	}
	res, err := engine.Execute(engine.Job{Kind: engine.KindExperiments, Experiments: &engine.ExperimentsJob{
		Scenario: selection, Scale: tinyScale, Events: tinyEvents,
		Budget1: tinyBudget, Budget2: tinyBudget, Quiet: true,
	}}, engine.Options{Parallelism: 2, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	batchArtifacts.Store(selection, res.Artifact)
	return res.Artifact
}

// tinyOptions sizes a sweep like CI's smoke jobs and runs it under the
// sweep's breaker bounds with short waits.
func tinyOptions(urls ...string) cluster.Options {
	return cluster.FastPolicy(cluster.Options{
		Workers:  urls,
		Scenario: tinySelect,
		Scale:    tinyScale,
		Events:   tinyEvents,
		Budget1:  tinyBudget,
		Budget2:  tinyBudget,
	}, 2, 5)
}

func TestSweepByteIdenticalToSingleProcess(t *testing.T) {
	_, tsA := startWorker(t)
	_, tsB := startWorker(t)

	got, rep, err := cluster.Run(context.Background(), tinyOptions(tsA.URL, tsB.URL))
	if err != nil {
		t.Fatal(err)
	}
	want := batchArtifact(t, tinySelect)
	if got != want {
		t.Errorf("sweep output differs from single-process run:\nsweep:\n%s\nbatch:\n%s", got, want)
	}
	if rep.Units != 3 {
		t.Errorf("report units = %d, want 3", rep.Units)
	}
	total := 0
	for _, n := range rep.Completed {
		total += n
	}
	if total != 3 {
		t.Errorf("completed %d units across workers, want 3: %v", total, rep.Completed)
	}
	if rep.Cache.Misses == 0 {
		t.Error("cold sweep reported no cluster cache misses")
	}
}

// flakyProxy forwards to a real worker until killed, then refuses every
// request — a worker process dying mid-run, deterministically timed: it
// goes dark immediately after accepting its first job.
type flakyProxy struct {
	inner http.Handler
	posts atomic.Int32
	dead  atomic.Bool
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		http.Error(w, "connection refused (simulated dead worker)", http.StatusBadGateway)
		return
	}
	f.inner.ServeHTTP(w, r)
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && f.posts.Add(1) == 1 {
		f.dead.Store(true)
	}
}

func TestSweepSurvivesWorkerKilledMidRun(t *testing.T) {
	_, tsA := startWorker(t)
	srvB, err := engine.NewServer(engine.ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: srvB.Handler()}
	tsB := httptest.NewServer(proxy)
	defer tsB.Close()
	defer srvB.Drain(context.Background())

	opts := tinyOptions(tsA.URL, tsB.URL)
	got, rep, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, tinySelect); got != want {
		t.Errorf("sweep with a killed worker differs from single-process run:\nsweep:\n%s\nbatch:\n%s", got, want)
	}
	if rep.Reassigned == 0 {
		t.Error("killed worker's unit was never reassigned")
	}
	// Every unit ultimately rendered on the surviving worker.
	if n := rep.Completed[strings.TrimRight(tsA.URL, "/")]; n != rep.Units {
		t.Errorf("surviving worker rendered %d of %d units: %v", n, rep.Units, rep.Completed)
	}
}

func TestSweepFederationWarmRerun(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "federated.json")

	_, tsA := startWorker(t)
	_, tsB := startWorker(t)
	opts := tinyOptions(tsA.URL, tsB.URL)
	opts.CachePath = snap
	cold, repCold, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if repCold.MergedEntries == 0 {
		t.Fatal("cold round merged no cache entries")
	}

	// Fresh workers (cold processes), same snapshot: the pre-seed makes
	// the whole cluster warm — zero misses anywhere.
	_, tsC := startWorker(t)
	_, tsD := startWorker(t)
	opts2 := tinyOptions(tsC.URL, tsD.URL)
	opts2.CachePath = snap
	warm, repWarm, err := cluster.Run(context.Background(), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Error("warm sweep output differs from cold sweep output")
	}
	if repWarm.Cache.Misses != 0 {
		t.Errorf("warm cluster simulated %d units, want 0 (stats %+v)", repWarm.Cache.Misses, repWarm.Cache)
	}
	if repWarm.Cache.Hits == 0 {
		t.Error("warm cluster reported no hits")
	}
	if repWarm.MergedEntries < repCold.MergedEntries {
		t.Errorf("federated snapshot shrank: %d -> %d", repCold.MergedEntries, repWarm.MergedEntries)
	}
}

func TestSweepFailsWithoutLiveWorkers(t *testing.T) {
	if _, _, err := cluster.Run(context.Background(), cluster.Options{Scenario: "table1"}); err == nil {
		t.Error("no workers accepted")
	}
	// An address nothing listens on: reachability is checked up front.
	opts := tinyOptions("http://127.0.0.1:1")
	opts.Scenario = "table1"
	if _, _, err := cluster.Run(context.Background(), opts); err == nil {
		t.Error("unreachable worker pool accepted")
	}
	// A bad selection fails before any dispatch.
	_, ts := startWorker(t)
	opts = tinyOptions(ts.URL)
	opts.Scenario = "no-such-scenario"
	if _, _, err := cluster.Run(context.Background(), opts); err == nil {
		t.Error("bogus selection accepted")
	}
}

func TestSweepUnitExhaustionSurfacesError(t *testing.T) {
	// A worker whose jobs always fail (bad selection is caught locally,
	// so use a proxy that 500s every submission after health passes).
	srv, err := engine.NewServer(engine.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer srv.Drain(context.Background())

	opts := tinyOptions(ts.URL)
	opts.Scenario = "table1"
	opts.Retries = 1
	_, _, err = cluster.Run(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Errorf("exhausted unit did not surface a failure: %v", err)
	}
}

var coldSweep struct {
	once   sync.Once
	misses uint64
	err    error
}

// coldMisses is how many simulations the tiny selection costs a cluster
// with nothing cached: the figure a sweep resumed from a cache file must
// beat.
func coldMisses(t *testing.T) uint64 {
	t.Helper()
	coldSweep.once.Do(func() {
		_, tsA := startWorker(t)
		_, tsB := startWorker(t)
		_, rep, err := cluster.Run(context.Background(), tinyOptions(tsA.URL, tsB.URL))
		coldSweep.misses, coldSweep.err = rep.Cache.Misses, err
	})
	if coldSweep.err != nil {
		t.Fatal(coldSweep.err)
	}
	return coldSweep.misses
}

// resume runs selection again with the cache file at path over two fresh
// workers and checks that it prints the single-process bytes; it returns
// the run's report.
func resume(t *testing.T, selection, path string) cluster.Report {
	t.Helper()
	_, tsA := startWorker(t)
	_, tsB := startWorker(t)
	opts := tinyOptions(tsA.URL, tsB.URL)
	opts.Scenario = selection
	opts.CachePath = path
	got, rep, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, selection); got != want {
		t.Errorf("sweep resumed from %s differs from the single-process run:\nsweep:\n%s\nbatch:\n%s", path, got, want)
	}
	return rep
}

// failUnitProxy 500s every submission of one unit, each only once every
// other unit's job on the worker is done: the rest of the sweep completes
// before that unit runs out of retries.
type failUnitProxy struct {
	inner  http.Handler
	unit   string
	others int
}

func (p *failUnitProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var job engine.Job
		if json.Unmarshal(body, &job) == nil && job.Experiments != nil && job.Experiments.Units == p.unit {
			for deadline := time.Now().Add(tinyTimeout); p.done() < p.others && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
			}
			http.Error(w, "simulated unit failure", http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	p.inner.ServeHTTP(w, r)
}

// done counts the worker's finished jobs.
func (p *failUnitProxy) done() int {
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	var jobs []engine.JobStatus
	json.Unmarshal(rec.Body.Bytes(), &jobs)
	n := 0
	for _, j := range jobs {
		if j.Status == "done" {
			n++
		}
	}
	return n
}

// TestFailedSweepKeepsWhatItsWorkersSimulated: a sweep that fails because
// one unit runs out of retries still collects its workers' deltas and
// saves them, so the units that completed are cache hits when the sweep is
// run again.
func TestFailedSweepKeepsWhatItsWorkersSimulated(t *testing.T) {
	srv, err := engine.NewServer(engine.ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&failUnitProxy{inner: srv.Handler(), unit: "table2", others: 2})
	defer ts.Close()
	defer srv.Drain(context.Background())

	path := filepath.Join(t.TempDir(), "fed.snap")
	opts := tinyOptions(ts.URL)
	opts.CachePath = path
	opts.Retries = 1
	_, rep, err := cluster.Run(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), "unit table2 failed") {
		t.Fatalf("sweep with a failing unit: error %v, want table2's failure", err)
	}
	if n := rep.Completed[strings.TrimRight(ts.URL, "/")]; n != 2 {
		t.Fatalf("%d units completed before the failure, want 2", n)
	}
	if !strings.Contains(err.Error(), "saved") || !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not say what it saved to %s", err, path)
	}

	// The snapshot holds every result of the completed units: a sweep of
	// them alone over a fresh worker simulates nothing.
	_, fresh := startWorker(t)
	opts = tinyOptions(fresh.URL)
	opts.Scenario = "table1,fig2"
	opts.CachePath = path
	if _, rep, err = cluster.Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Misses != 0 {
		t.Errorf("the completed units re-simulated %d times from the failed sweep's snapshot", rep.Cache.Misses)
	}

	if misses, cold := resume(t, tinySelect, path).Cache.Misses, coldMisses(t); misses >= cold {
		t.Errorf("re-run after the failure simulated %d times, a cold run %d", misses, cold)
	}
}

// TestSweepRestartsFromCheckpoint: a coordinator killed mid-sweep leaves
// the snapshot of its last checkpoint, and the same sweep restarted from
// it on fresh workers prints the same bytes while simulating less than the
// cold run did; once it has finished, a third run simulates nothing. One
// worker runs fig2 and the other fig4, which takes about three times as
// long, so fig2's completion checkpoints mid-run.
func TestSweepRestartsFromCheckpoint(t *testing.T) {
	const selection = "fig2,fig4"
	dir := t.TempDir()
	path, killed := filepath.Join(dir, "fed.snap"), filepath.Join(dir, "killed.snap")
	_, tsA := startWorker(t)
	_, tsB := startWorker(t)
	opts := tinyOptions(tsA.URL, tsB.URL)
	opts.Scenario = selection
	opts.CachePath = path
	var once sync.Once
	copyErr := errors.New("no save")
	opts.Log = func(format string, args ...any) {
		if strings.HasPrefix(fmt.Sprintf(format, args...), "sweep: cache: saved ") {
			// The file as a kill -9 right after this save would leave it.
			once.Do(func() {
				var data []byte
				if data, copyErr = os.ReadFile(path); copyErr == nil {
					copyErr = os.WriteFile(killed, data, 0o644)
				}
			})
		}
	}
	_, cold, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if copyErr != nil {
		t.Fatalf("no checkpoint to restart from: %v", copyErr)
	}

	restarted := resume(t, selection, killed)
	t.Logf("restart from the checkpoint: %d misses, cold run %d", restarted.Cache.Misses, cold.Cache.Misses)
	if restarted.Cache.Misses == 0 {
		t.Error("the first save held everything: it was not a checkpoint taken mid-run")
	}
	if restarted.Cache.Misses >= cold.Cache.Misses {
		t.Errorf("restart from the checkpoint simulated %d times, the cold run %d", restarted.Cache.Misses, cold.Cache.Misses)
	}
	if third := resume(t, selection, killed); third.Cache.Misses != 0 {
		t.Errorf("third run simulated %d times, want 0", third.Cache.Misses)
	}
}

// jobStatuses counts the worker's jobs by status.
func jobStatuses(t *testing.T, url string) map[string]int {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []engine.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, j := range jobs {
		n[j.Status]++
	}
	return n
}

// TestInterruptedSweepSaves: a sweep whose context is cancelled mid-round
// cancels the jobs it leaves on its workers, collects their deltas under a
// context of its own, saves them and says so in its error; re-run, it
// simulates less than a cold run.
func TestInterruptedSweepSaves(t *testing.T) {
	srvA, tsA := startWorker(t)
	srvB, tsB := startWorker(t)
	path := filepath.Join(t.TempDir(), "fed.snap")
	opts := tinyOptions(tsA.URL, tsB.URL)
	opts.CachePath = path
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// fig2 simulates 290 times, table1 and table2 not at all: interrupt
		// fig2 a sixth of the way through.
		for srvA.Cache().Stats().Misses+srvB.Cache().Stats().Misses < 50 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, _, err := cluster.Run(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: error %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cache entries to "+path+")") {
		t.Errorf("error %q does not say what it saved to %s", err, path)
	}
	// The job that was simulating when the context ended was cancelled,
	// not left to run to its end.
	cancelled := 0
	for _, url := range []string{tsA.URL, tsB.URL} {
		n := jobStatuses(t, url)
		for deadline := time.Now().Add(5 * time.Second); n["queued"]+n["running"] > 0 && time.Now().Before(deadline); n = jobStatuses(t, url) {
			time.Sleep(10 * time.Millisecond)
		}
		if n["queued"]+n["running"] > 0 {
			t.Errorf("%s still holds the interrupted sweep's jobs: %v", url, n)
		}
		cancelled += n["cancelled"]
	}
	if cancelled == 0 {
		t.Errorf("the interrupted sweep cancelled none of its jobs: %v %v", jobStatuses(t, tsA.URL), jobStatuses(t, tsB.URL))
	}
	if misses, cold := resume(t, tinySelect, path).Cache.Misses, coldMisses(t); misses >= cold {
		t.Errorf("re-run after the interrupt simulated %d times, a cold run %d", misses, cold)
	}
}

// brokenUntilProxy 500s job submissions until `heal` submissions have
// been refused, then behaves normally — a worker with a transient fault
// (full disk, OOM churn) that recovers while quarantined. Health checks
// pass throughout, so the prober re-admits it.
type brokenUntilProxy struct {
	inner    http.Handler
	refusals atomic.Int32
	heal     int32
}

func (b *brokenUntilProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		if n := b.refusals.Load(); n < b.heal {
			b.refusals.Add(1)
			http.Error(w, "simulated transient fault", http.StatusInternalServerError)
			return
		}
	}
	b.inner.ServeHTTP(w, r)
}

func TestSweepQuarantinesAndReadmitsFlakyWorker(t *testing.T) {
	// The flaky worker is the ONLY worker: finishing the sweep at all
	// requires the full circuit-breaker cycle — failures open the circuit,
	// a passing probe re-admits, the healed worker renders everything.
	srvB, err := engine.NewServer(engine.ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &brokenUntilProxy{inner: srvB.Handler(), heal: 2}
	tsB := httptest.NewServer(proxy)
	defer tsB.Close()
	defer srvB.Drain(context.Background())

	opts := tinyOptions(tsB.URL)
	opts.Retries = 6
	got, rep, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, tinySelect); got != want {
		t.Errorf("sweep with a flaky worker differs from single-process run:\nsweep:\n%s\nbatch:\n%s", got, want)
	}
	flaky := strings.TrimRight(tsB.URL, "/")
	var quarantined bool
	for _, url := range rep.Quarantined {
		if url == flaky {
			quarantined = true
		}
	}
	if !quarantined {
		t.Errorf("flaky worker never quarantined: %v", rep.Quarantined)
	}
	for _, url := range rep.Dead {
		if url == flaky {
			t.Errorf("healed worker declared dead: %v", rep.Dead)
		}
	}
}

func TestSweepQuarantinedWorkerDiesAfterProbeBudget(t *testing.T) {
	// A worker that goes completely dark (every request fails, probes
	// included) exhausts its probe budget and is declared dead; the sweep
	// still completes on the healthy worker.
	srvB, err := engine.NewServer(engine.ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: srvB.Handler()}
	tsB := httptest.NewServer(proxy)
	defer tsB.Close()
	defer srvB.Drain(context.Background())
	dark := strings.TrimRight(tsB.URL, "/")

	// The healthy worker holds every job submitted after the dark one went
	// dark until the coordinator has dropped it: a unit redispatched from the
	// dark worker is shorter than its probes, and the sweep would otherwise
	// end with a probe still out.
	srvA, err := engine.NewServer(engine.ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Drain(context.Background())
	dropped := make(chan struct{})
	var once sync.Once
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && proxy.dead.Load() {
			select {
			case <-dropped:
			case <-time.After(10 * time.Second):
			}
		}
		srvA.Handler().ServeHTTP(w, r)
	}))
	defer tsA.Close()

	opts := cluster.FastPolicy(tinyOptions(tsA.URL, tsB.URL), 1, 2)
	opts.Log = func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "sweep: worker "+dark) && strings.HasSuffix(line, ": dead") {
			once.Do(func() { close(dropped) })
		}
	}
	got, rep, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, tinySelect); got != want {
		t.Errorf("sweep output differs after probe-exhausted death")
	}
	var died bool
	for _, url := range rep.Dead {
		if url == dark {
			died = true
		}
	}
	if !died {
		t.Errorf("dark worker not declared dead: dead=%v quarantined=%v", rep.Dead, rep.Quarantined)
	}
}

// TestSweepReportsWorkerUnreachableAtStartAsDead: a worker that never
// answers its startup health check leaves the round like any other dead
// worker — the sweep completes on the live one and Report.Dead names it.
func TestSweepReportsWorkerUnreachableAtStartAsDead(t *testing.T) {
	_, ts := startWorker(t)
	const gone = "http://127.0.0.1:1"
	opts := tinyOptions(ts.URL, gone)
	opts.Scenario = "table1"
	got, rep, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, "table1"); got != want {
		t.Error("sweep output differs from single-process run")
	}
	if len(rep.Dead) != 1 || rep.Dead[0] != gone {
		t.Errorf("Report.Dead = %v, want [%s]", rep.Dead, gone)
	}
}

// TestSweepReportsWorkerFailingPreseedAsDead: a worker that refuses every
// pre-seed import leaves the round and Report.Dead names it.
func TestSweepReportsWorkerFailingPreseedAsDead(t *testing.T) {
	_, tsA := startWorker(t)
	srvB, err := engine.NewServer(engine.ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	inner := srvB.Handler()
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/cache/snapshot" {
			http.Error(w, "simulated import failure", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer tsB.Close()
	defer srvB.Drain(context.Background())

	// Any snapshot with an entry makes the sweep pre-seed.
	seed := simcache.New()
	seed.Store(strings.Repeat("a", 64)+":"+strings.Repeat("b", 64), core.Result{Cycles: 1})
	body, err := seed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fed.snap")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := tinyOptions(tsA.URL, tsB.URL)
	opts.Scenario = "table1"
	opts.CachePath = path
	got, rep, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, "table1"); got != want {
		t.Error("sweep output differs from single-process run")
	}
	if refused := strings.TrimRight(tsB.URL, "/"); len(rep.Dead) != 1 || rep.Dead[0] != refused {
		t.Errorf("Report.Dead = %v, want [%s]", rep.Dead, refused)
	}
	if n := rep.Completed[strings.TrimRight(tsA.URL, "/")]; n != rep.Units {
		t.Errorf("the pre-seeded worker rendered %d of %d units: %v", n, rep.Units, rep.Completed)
	}
}

func TestSweepByteIdenticalUnderChaosTransport(t *testing.T) {
	// The tentpole property: with seeded network faults between the
	// coordinator and every worker, the assembled artifact is still
	// byte-identical to the fault-free run — faults cost retries, never
	// correctness.
	_, tsA := startWorker(t)
	_, tsB := startWorker(t)

	inj := chaos.New(chaos.Spec{Seed: 7, Drop: 0.04, Delay: 0.05, DelayMax: 10 * time.Millisecond, Fail: 0.03, Corrupt: 0.03})
	opts := cluster.FastPolicy(tinyOptions(tsA.URL, tsB.URL), 4, 5)
	opts.Transport = inj.Transport(nil)
	opts.Retries = 8
	got, _, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, tinySelect); got != want {
		t.Errorf("chaos sweep differs from fault-free run:\nchaos:\n%s\nclean:\n%s", got, want)
	}
	if inj.Counts() == (chaos.Counts{}) {
		t.Error("the chaos run injected nothing; the property was not exercised")
	}
}

func TestSweepTracingCoversEveryUnitExactlyOnce(t *testing.T) {
	_, tsA := startWorker(t)
	_, tsB := startWorker(t)

	rec := telemetry.NewRecorder()
	root := telemetry.SpanContext{Trace: telemetry.NewID(), Span: telemetry.NewID()}
	opts := tinyOptions(tsA.URL, tsB.URL)
	opts.Trace = root
	opts.Recorder = rec

	got, rep, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, tinySelect); got != want {
		t.Error("traced sweep output differs from single-process run")
	}

	spans := rec.Spans()
	unitSpans := map[string]telemetry.Span{}
	byID := map[string]telemetry.Span{}
	for _, sp := range spans {
		if sp.Trace != root.Trace {
			t.Errorf("span %s/%s outside the sweep trace", sp.Name, sp.ID)
		}
		byID[sp.ID] = sp
		if sp.Name == "unit" {
			uid := sp.Attrs["unit"]
			if _, dup := unitSpans[uid]; dup {
				t.Errorf("unit %s covered twice in the flight recorder", uid)
			}
			unitSpans[uid] = sp
		}
	}
	if len(unitSpans) != rep.Units {
		t.Fatalf("flight recorder covers %d units, want %d: %v", len(unitSpans), rep.Units, unitSpans)
	}
	for uid, sp := range unitSpans {
		if sp.Parent != root.Span {
			t.Errorf("unit %s span not parented under the sweep root", uid)
		}
	}
	// Worker-side job spans must parent under some unit span — the
	// coordinator → worker hop survived the HTTP boundary.
	jobSpans := 0
	for _, sp := range spans {
		if sp.Name != "job" {
			continue
		}
		jobSpans++
		parent, ok := byID[sp.Parent]
		if !ok || parent.Name != "unit" {
			t.Errorf("job span %s not parented under a unit span (parent %q)", sp.ID, sp.Parent)
		}
	}
	if jobSpans != rep.Units {
		t.Errorf("%d job spans for %d units", jobSpans, rep.Units)
	}

	if len(rep.UnitDurations) != rep.Units {
		t.Errorf("%d unit durations for %d units", len(rep.UnitDurations), rep.Units)
	}
	for _, d := range rep.UnitDurations {
		if d <= 0 {
			t.Errorf("non-positive unit duration %v", d)
		}
	}

	// Scheduling counts: a clean sweep dispatches and completes every
	// unit, reassigns nothing.
	completed := 0
	for _, n := range rep.Completed {
		completed += n
	}
	if dispatched := completed + rep.Reassigned; dispatched != 3 {
		t.Errorf("%d dispatches, want 3", dispatched)
	}
	if completed != 3 {
		t.Errorf("%d units completed, want 3: %v", completed, rep.Completed)
	}
	if rep.Reassigned != 0 {
		t.Errorf("%d dispatches reassigned, want 0", rep.Reassigned)
	}
}

func TestSweepUntracedRecordsNothing(t *testing.T) {
	_, ts := startWorker(t)
	opts := tinyOptions(ts.URL)
	opts.Scenario = "table1"
	got, _, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, "table1"); got != want {
		t.Error("untraced sweep output differs from single-process run")
	}
}

// TestSweepCachePathNotASnapshotFailsBeforeDispatch: a federated-cache path
// naming an existing file that is not a binary snapshot — a snapshot of the
// deleted JSON generation, or text — fails the sweep before any unit is
// dispatched, with an error naming the file, and the file keeps its bytes.
func TestSweepCachePathNotASnapshotFailsBeforeDispatch(t *testing.T) {
	for what, body := range map[string]string{
		"legacy JSON snapshot": "{\n \"format\": 1,\n \"entries\": []\n}\n",
		"1 KiB of text":        strings.Repeat("0123456789abcde\n", 64),
	} {
		srv, ts := startWorker(t)
		path := filepath.Join(t.TempDir(), "fed.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := tinyOptions(ts.URL)
		opts.CachePath = path
		if _, _, err := cluster.Run(context.Background(), opts); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("sweep over a %s: error %v, want one naming %s", what, err, path)
		}
		if st := srv.Cache().Stats(); st.Misses != 0 {
			t.Errorf("sweep over a %s: the worker ran %d simulations", what, st.Misses)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("sweep over a %s: the file was changed (read error %v)", what, err)
		}
	}
}

// TestSweepLeavesNoIdleConnections: when cluster.Run returns, the
// coordinator holds no connection to a worker that is not carrying a
// request. A worker told to stop right after (`sweep -spawn` does that)
// otherwise waits out, in its graceful shutdown, a connection the
// coordinator dialled and never used: net/http counts a StateNew
// connection active until it is five seconds old.
func TestSweepLeavesNoIdleConnections(t *testing.T) {
	for what, transport := range map[string]http.RoundTripper{
		"default transport": nil,
		"chaos transport":   chaos.New(chaos.Spec{Seed: 1}).Transport(nil),
	} {
		var mu sync.Mutex
		conns := map[net.Conn]http.ConnState{}
		var urls []string
		for i := 0; i < 2; i++ {
			srv, err := engine.NewServer(engine.ServerOptions{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewUnstartedServer(srv.Handler())
			ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
				mu.Lock()
				conns[c] = st
				mu.Unlock()
			}
			ts.Start()
			t.Cleanup(func() {
				ts.Close()
				srv.Drain(context.Background())
			})
			urls = append(urls, ts.URL)
		}
		opts := tinyOptions(urls...)
		opts.Scenario = "table1"
		opts.Transport = transport
		if _, _, err := cluster.Run(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		lingering := func() (n int) {
			mu.Lock()
			defer mu.Unlock()
			for _, st := range conns {
				if st == http.StateNew || st == http.StateIdle {
					n++
				}
			}
			return n
		}
		deadline := time.Now().Add(time.Second)
		for lingering() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := lingering(); n > 0 {
			t.Errorf("%s: %d of %d connections are still new or idle a second after the sweep returned", what, n, len(conns))
		}
	}
}
