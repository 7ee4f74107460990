package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"racesim/internal/core"
	"racesim/internal/simcache"
	"racesim/internal/telemetry"
)

func TestClientSubmitHonorsRetryAfter(t *testing.T) {
	// A worker that answers 429 + Retry-After twice before accepting: the
	// client must wait the hinted delay and resubmit, not fail.
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: "engine: job queue is full"})
			return
		}
		writeJSON(w, http.StatusAccepted, struct {
			ID string `json:"id"`
		}{ID: "job-000007"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	id, err := c.Submit(context.Background(), Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000007" {
		t.Errorf("id = %q", id)
	}
	if got := posts.Load(); got != 3 {
		t.Errorf("client posted %d times, want 3 (2 back-pressured + 1 accepted)", got)
	}

	// With retries exhausted, the back-pressure error surfaces.
	posts.Store(-100)
	if _, err := c.Submit(context.Background(), Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}}); err == nil {
		t.Error("endless 429 did not surface an error")
	}
}

// TestBackoffSchedule pins the one retry schedule every client and sweep
// loop waits on: 500ms doubled per attempt, capped at 30s however far the
// attempts go.
func TestBackoffSchedule(t *testing.T) {
	for attempt, want := range []time.Duration{
		500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 16 * time.Second, 30 * time.Second, 30 * time.Second,
	} {
		if got := Backoff(attempt); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
	for _, attempt := range []int{8, 62, 63, 64, 1 << 20} {
		if got := Backoff(attempt); got != 30*time.Second {
			t.Errorf("Backoff(%d) = %v, want the 30s cap", attempt, got)
		}
	}
}

func TestServerQueueFullAnswers429WithRetryAfter(t *testing.T) {
	// A server with no worker goroutines: the depth-1 queue fills on the
	// first submission and never drains, so the full-queue answer is
	// deterministic.
	srv := &Server{
		opts:     ServerOptions{QueueDepth: 1},
		keepLog:  5,
		keepJobs: 16,
		cache:    simcache.New(),
		log:      func(string, ...any) {},
		jobs:     map[string]*jobState{},
		queue:    make(chan *jobState, 1),
		metrics:  telemetry.NewRegistry(),
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, code := postJob(t, ts, Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}}); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	body, _ := json.Marshal(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
}

func TestServerSnapshotFederation(t *testing.T) {
	// Worker A computes a result, exports its delta; worker B imports it
	// and answers the same job without a single miss — the cache
	// federation path the sweep coordinator drives between rounds.
	a, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	ca := NewClient(tsA.URL)
	ctx := context.Background()

	runJob := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}}
	id, err := ca.Submit(ctx, runJob)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := ca.Watch(ctx, id, 10*time.Millisecond); err != nil || st.Status != "done" {
		t.Fatalf("run job: %v / %+v", err, st)
	}

	// With no startup warm-up the baseline is empty: the delta is the
	// full contribution.
	delta, err := ca.ExportSnapshot(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	check := simcache.New()
	added, _, err := check.LoadStream(bytes.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("delta snapshot is empty after a simulating job")
	}

	b, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	cb := NewClient(tsB.URL)

	rep, err := cb.ImportSnapshot(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != added || rep.Rejected != 0 {
		t.Errorf("import report %+v, want %d added, 0 rejected", rep, added)
	}
	// The import resets B's delta baseline: B has contributed nothing yet.
	bDelta, err := cb.ExportSnapshot(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	empty := simcache.New()
	if n, _, err := empty.LoadStream(bytes.NewReader(bDelta)); err != nil || n != 0 {
		t.Errorf("pre-seeded worker's delta has %d entries (err %v), want 0", n, err)
	}

	before, err := cb.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	id, err = cb.Submit(ctx, runJob)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cb.Watch(ctx, id, 10*time.Millisecond); err != nil || st.Status != "done" {
		t.Fatalf("warm run job: %v / %+v", err, st)
	}
	after, err := cb.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if miss := after.Cache.Misses - before.Cache.Misses; miss != 0 {
		t.Errorf("pre-seeded worker simulated %d units, want 0", miss)
	}
	if hits := after.Cache.Hits - before.Cache.Hits; hits == 0 {
		t.Error("pre-seeded worker reported no hits")
	}

	a.Drain(ctx)
	b.Drain(ctx)
}

// TestDeltaCarriesPairSimulatedDuringImport: a job that stores a result
// while a snapshot import is still streaming in has that result in the
// next delta export — the baseline is where the import began, and only
// what the import stored is left out.
func TestDeltaCarriesPairSimulatedDuringImport(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())
	ctx := context.Background()
	cl := NewClient(ts.URL)

	// What the import carries: a result this server never simulates.
	seed := simcache.New()
	seed.Store(strings.Repeat("a", 64)+":"+strings.Repeat("b", 64), core.Result{Cycles: 1})
	body, err := seed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const headerBytes = 16 // a binary snapshot's header
	pr, pw := io.Pipe()
	imported := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cache/snapshot", pr))
		imported <- rec
	}()
	// The handler has read the header and one byte of the record: the
	// import is under way, blocked on the rest.
	if _, err := pw.Write(body[:headerBytes+1]); err != nil {
		t.Fatal(err)
	}

	id, err := srv.Submit(Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, ts, id); st.Status != "done" {
		t.Fatalf("job: %s", st.Error)
	}
	simulated := srv.Cache().Keys()
	if len(simulated) == 0 {
		t.Fatal("the job stored nothing")
	}

	if _, err := pw.Write(body[headerBytes+1:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if rec := <-imported; rec.Code != http.StatusOK {
		t.Fatalf("import answered %d: %s", rec.Code, rec.Body)
	}

	delta, err := cl.ExportSnapshot(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	got := simcache.New()
	if _, _, err := got.LoadStream(bytes.NewReader(delta)); err != nil {
		t.Fatal(err)
	}
	if keys := got.Keys(); !slices.Equal(keys, simulated) {
		t.Errorf("delta holds %d entries %v, want the %d the job stored during the import", len(keys), keys, len(simulated))
	}
}

func TestClientHealthDistinguishesUnreachableFromDraining(t *testing.T) {
	ctx := context.Background()
	// Nothing listening: a transport-level failure wrapped in
	// ErrUnreachable.
	gone := NewClient("http://127.0.0.1:1")
	if _, err := gone.Health(ctx); !errors.Is(err, ErrUnreachable) {
		t.Errorf("dead endpoint Health error = %v, want ErrUnreachable", err)
	}

	// A draining server answers Health normally with Status "draining" —
	// reachable, just going away; no error, not ErrUnreachable.
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	h, err := NewClient(ts.URL).Health(ctx)
	if err != nil {
		t.Fatalf("draining server Health: %v", err)
	}
	if h.Status != "draining" {
		t.Errorf("draining server reports %q", h.Status)
	}
}

func TestClientCancelRoundTrip(t *testing.T) {
	// Queue a job behind a stalled one, cancel it through the typed
	// client, and observe Wait return the cancelled terminal state.
	release := make(chan struct{})
	var calls atomic.Int32
	srv, err := NewServer(ServerOptions{
		faultHook: func(ctx context.Context) error {
			if calls.Add(1) == 1 {
				select {
				case <-release:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL)

	blocker, err := c.Submit(ctx, Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	status, err := c.Cancel(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	if status != "cancelled" {
		t.Errorf("cancel of queued job reported %q, want cancelled", status)
	}
	if st, err := c.Watch(ctx, queued, 10*time.Millisecond); err != nil || st.Status != "cancelled" {
		t.Errorf("Wait on cancelled job: %v / %q", err, st.Status)
	}
	// Cancelling an unknown job is an error carrying the server's message.
	if _, err := c.Cancel(ctx, "job-999999"); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
	close(release)
	if st, err := c.Watch(ctx, blocker, 10*time.Millisecond); err != nil || st.Status != "done" {
		t.Errorf("blocker after release: %v / %q", err, st.Status)
	}
	srv.Drain(ctx)
}
