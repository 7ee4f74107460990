package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"racesim/internal/simcache"
)

func cancelJob(t *testing.T, ts *httptest.Server, id string) (status string, code int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return out.Status, resp.StatusCode
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.Status {
		case "done", "failed", "cancelled":
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func TestServerSurvivesPanickingJob(t *testing.T) {
	// The first job's fault hook panics inside the engine; the pool must
	// record one failed job with its stack and keep serving. Without
	// recovery the single worker goroutine dies and the second job hangs
	// queued forever.
	var calls atomic.Int32
	srv, err := NewServer(ServerOptions{
		faultHook: func(ctx context.Context) error {
			if calls.Add(1) == 1 {
				panic("injected: first job dies")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	id1, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, ts, id1)
	if st1.Status != "failed" || !strings.Contains(st1.Error, "panicked") {
		t.Fatalf("panicking job: status %s, error %q; want failed with a panic error", st1.Status, st1.Error)
	}
	// The stack lands in the progress ring so GET /v1/jobs/{id} shows
	// where the job died.
	var sawStack bool
	for _, line := range st1.Progress {
		if strings.Contains(line, "goroutine") || strings.Contains(line, "panic:") {
			sawStack = true
		}
	}
	if !sawStack {
		t.Errorf("no stack in the progress ring: %v", st1.Progress)
	}

	id2, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := waitTerminal(t, ts, id2); st2.Status != "done" {
		t.Errorf("job after the panic: status %s, want done (worker pool did not survive)", st2.Status)
	}
}

func TestServerCancelRunningJobFreesSlot(t *testing.T) {
	// Block the single worker on a stalled fault hook, cancel the job over
	// HTTP, and prove the slot frees by running a second job to completion.
	started := make(chan struct{}, 1)
	var calls atomic.Int32
	srv, err := NewServer(ServerOptions{
		faultHook: func(ctx context.Context) error {
			// Only the first job stalls; the follow-up job passes through.
			if calls.Add(1) != 1 {
				return nil
			}
			started <- struct{}{}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}
	status, code := cancelJob(t, ts, id)
	if code != http.StatusAccepted || status != "cancelling" {
		t.Fatalf("cancel running job: code %d status %q, want 202 cancelling", code, status)
	}
	st := waitTerminal(t, ts, id)
	if st.Status != "cancelled" {
		t.Fatalf("cancelled job settled as %s (%s)", st.Status, st.Error)
	}
	// Cancelling a terminal job is a conflict, not an idempotent no-op.
	if _, code := cancelJob(t, ts, id); code != http.StatusConflict {
		t.Errorf("cancel of finished job: code %d, want 409", code)
	}

	// The worker slot is free again: new work runs to completion.
	id2, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := waitTerminal(t, ts, id2); st2.Status != "done" {
		t.Errorf("job after cancellation: status %s, want done (slot never freed)", st2.Status)
	}
	srv.Drain(context.Background())
}

func TestServerCancelQueuedJobNeverRuns(t *testing.T) {
	// One worker pinned on a stalling job; a queued job cancelled before it
	// starts must flip to cancelled immediately and never execute.
	release := make(chan struct{})
	var ran atomic.Int32
	srv, err := NewServer(ServerOptions{
		faultHook: func(ctx context.Context) error {
			if ran.Add(1) == 1 {
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

	blocker, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	status, code := cancelJob(t, ts, queued)
	if code != http.StatusAccepted || status != "cancelled" {
		t.Fatalf("cancel queued job: code %d status %q, want 202 cancelled", code, status)
	}
	close(release)
	if st := waitTerminal(t, ts, blocker); st.Status != "done" {
		t.Fatalf("blocker job: %s (%s)", st.Status, st.Error)
	}
	if st := getStatus(t, ts, queued); st.Status != "cancelled" {
		t.Errorf("queued job settled as %s after cancellation", st.Status)
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("fault hook ran %d times; the cancelled queued job executed", n)
	}
	srv.Drain(context.Background())
}

func TestServerEnforcesJobDeadline(t *testing.T) {
	// A server-wide 50ms deadline against a hook stalled on its context:
	// the job must fail with a deadline error, not hang its worker.
	srv, err := NewServer(ServerOptions{
		JobTimeout: 50 * time.Millisecond,
		faultHook: func(ctx context.Context) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, ts, id)
	if st.Status != "failed" || !strings.Contains(st.Error, "deadline") {
		t.Errorf("timed-out job: status %s error %q, want failed with a deadline error", st.Status, st.Error)
	}
	srv.Drain(context.Background())
}

func TestJobOwnTimeoutValidatedAndEnforced(t *testing.T) {
	// Bad duration strings are rejected at submission.
	bad := Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}, Timeout: "fast"}
	if err := bad.Check(); err == nil {
		t.Error("unparseable job timeout accepted")
	}
	neg := Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}, Timeout: "-5s"}
	if err := neg.Check(); err == nil {
		t.Error("negative job timeout accepted")
	}

	// A job carrying its own timeout is bounded even on a server with no
	// JobTimeout configured.
	srv, err := NewServer(ServerOptions{
		faultHook: func(ctx context.Context) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}, Timeout: "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, ts, id)
	if st.Status != "failed" || !strings.Contains(st.Error, "deadline") {
		t.Errorf("job with own timeout: status %s error %q, want failed deadline", st.Status, st.Error)
	}
	srv.Drain(context.Background())
}

func TestServerRejectsCorruptSnapshotPost(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	// Warm one entry so a wholesale-clobbering import would be observable.
	id, err := srv.Submit(Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ts, id)
	before := srv.Cache().Stats().Entries
	if before == 0 {
		t.Fatal("warm-up job cached nothing")
	}

	for _, body := range []string{
		"not json at all",
		`{"format":1,"entries":[`,   // truncated mid-stream
		`{"format":1,"entries":[]}`, // a whole snapshot of the JSON generation: no longer a format
		"\x00\x00\x00\x00",
	} {
		resp, err := http.Post(ts.URL+"/v1/cache/snapshot", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("corrupt snapshot %q answered %d, want 400", body, resp.StatusCode)
		}
	}
	// The existing cache is untouched and the server still works.
	if after := srv.Cache().Stats().Entries; after != before {
		t.Errorf("corrupt imports changed the cache: %d -> %d entries", before, after)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after corrupt imports: %d", resp.StatusCode)
	}
}

func TestServerSnapshotHookPoisonsDelta(t *testing.T) {
	// A delta mangled on its way between two servers must surface at the
	// importing side as rejected entries — never as a silent merge of
	// altered results.
	srcSrv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srcTS := httptest.NewServer(srcSrv.Handler())
	defer srcTS.Close()
	defer srcSrv.Drain(context.Background())

	id, err := srcSrv.Submit(Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, srcTS, id); st.Status != "done" {
		t.Fatalf("warm-up job: %s", st.Error)
	}
	srcEntries := srcSrv.Cache().Stats().Entries

	delta, err := NewClient(srcTS.URL).ExportSnapshot(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := simcache.PoisonSnapshot(delta)
	if err != nil {
		t.Fatal(err)
	}

	dstSrv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dstTS := httptest.NewServer(dstSrv.Handler())
	defer dstTS.Close()
	defer dstSrv.Drain(context.Background())
	resp, err := http.Post(dstTS.URL+"/v1/cache/snapshot", "application/octet-stream", bytes.NewReader(poisoned))
	if err != nil {
		t.Fatal(err)
	}
	var rep SnapshotReport
	decodeErr := json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poisoned import answered %d", resp.StatusCode)
	}
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	// PoisonSnapshot breaks exactly one entry's checksum: the import
	// rejects that entry, accepts the rest, and reports the rejection.
	if rep.Rejected != 1 {
		t.Errorf("import report %+v, want exactly 1 rejected entry", rep)
	}
	if n := dstSrv.Cache().Stats().Entries; n != srcEntries-1 {
		t.Errorf("destination cache has %d entries, want %d (all but the poisoned one)", n, srcEntries-1)
	}
}
