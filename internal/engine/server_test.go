package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"racesim/internal/simcache"
)

// tinyExperiments is a seconds-scale sweep job used throughout the server
// tests.
func tinyExperiments() Job {
	return Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
		Scenario: "table1", Scale: 0.002, Events: 4000, Quiet: true,
	}}
}

func postJob(t *testing.T, ts *httptest.Server, job Job) (id string, code int) {
	t.Helper()
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.Status {
		case "done", "failed":
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func TestServerJobLifecycleMatchesBatch(t *testing.T) {
	srv, err := NewServer(ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	id, code := postJob(t, ts, tinyExperiments())
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("submit: code %d id %q", code, id)
	}
	st := waitDone(t, ts, id)
	if st.Status != "done" {
		t.Fatalf("job failed: %s\n%s", st.Error, strings.Join(st.Progress, "\n"))
	}
	if st.Result == nil || st.Result.Artifact == "" {
		t.Fatal("done job carries no result artifact")
	}

	// The HTTP-submitted job renders the same bytes as the equivalent
	// batch invocation — the serve/batch equivalence contract.
	batch, err := Execute(tinyExperiments(), Options{Parallelism: 2, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Artifact != batch.Artifact {
		t.Errorf("HTTP artifact differs from batch artifact:\nhttp:\n%s\nbatch:\n%s",
			st.Result.Artifact, batch.Artifact)
	}

	// The raw artifact endpoint serves the identical bytes as text/plain.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(raw) != st.Result.Artifact {
		t.Error("artifact endpoint bytes differ from the result")
	}

	// A repeated simulation job answers from the shared warm cache (table1
	// only generates traces, so use a run job for the cache assertion).
	runJob := Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}}
	idA, _ := postJob(t, ts, runJob)
	stA := waitDone(t, ts, idA)
	idB, _ := postJob(t, ts, runJob)
	stB := waitDone(t, ts, idB)
	if stA.Status != "done" || stB.Status != "done" {
		t.Fatalf("run jobs failed: %s / %s", stA.Error, stB.Error)
	}
	if stB.Result.Artifact != stA.Result.Artifact {
		t.Error("repeat run job artifact differs")
	}
	if hits := stB.Result.CacheStats.Hits; hits == 0 {
		t.Errorf("repeat run job saw no cache hits: %+v", stB.Result.CacheStats)
	}
}

func TestServerScenariosAndHealth(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ScenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]ScenarioInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in, ok := byName["budget-sweep-a53"]; !ok || in.Units != 4 || in.Paper {
		t.Errorf("budget-sweep-a53 listing wrong: %+v (ok=%v)", in, ok)
	}
	if in, ok := byName["fig4"]; !ok || in.Units != 1 || !in.Paper {
		t.Errorf("fig4 listing wrong: %+v (ok=%v)", in, ok)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Workers != 1 {
		t.Errorf("health: %+v", health)
	}
}

func TestServerRejectsBadJobs(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	if _, code := postJob(t, ts, Job{Kind: "bogus"}); code != http.StatusBadRequest {
		t.Errorf("bogus kind: code %d", code)
	}
	// Unknown fields are rejected, so schema typos — and the resume and
	// partition fields an older client may still send — fail loudly.
	for _, body := range []string{
		`{"kind":"run","run":{"ubenchh":"MD"}}`,
		`{"kind":"experiments","experiments":{"scenario":"table1","shard":"1/2"}}`,
		`{"kind":"experiments","experiments":{"scenario":"table1","resume":true}}`,
		`{"kind":"experiments","experiments":{"scenario":"table1","checkpoint_every":"10s"}}`,
		`{"kind":"experiments","experiments":{"run":"table1"}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown field") {
			t.Errorf("%s: code %d, body %s; want 400 unknown field", body, resp.StatusCode, msg)
		}
	}
	// The HTTP API is unauthenticated: jobs naming server-side file paths
	// (reads or writes) must be refused at submission.
	for _, job := range []Job{
		{Kind: KindUbench, Ubench: &UbenchJob{Dump: "MD", DumpOut: "/tmp/x.rift"}},
		{Kind: KindValidate, Validate: &ValidateJob{OutPath: "/tmp/owned.json"}},
		{Kind: KindExperiments, Experiments: &ExperimentsJob{Scenario: "table1", OutPath: "/tmp/out.md"}},
		{Kind: KindRun, Run: &RunJob{ConfigPath: "/etc/passwd", Ubench: "MD"}},
	} {
		if _, code := postJob(t, ts, job); code != http.StatusBadRequest {
			t.Errorf("server-side path job (%s) accepted with code %d, want 400", job.Kind, code)
		}
	}
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/artifact"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: code %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServerDrain(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "serve-cache.json")
	srv, err := NewServer(ServerOptions{CachePath: cachePath, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A couple of queued jobs must complete before Drain returns.
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := srv.Submit(Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := getStatus(t, ts, id); st.Status != "done" {
			t.Errorf("job %s not done after drain: %s", id, st.Status)
		}
	}
	// The warm cache was persisted...
	if stats := srv.Cache().Stats(); stats.Entries == 0 {
		t.Error("drain saved an empty cache")
	}
	reload, err := NewServer(ServerOptions{CachePath: cachePath})
	if err != nil {
		t.Fatal(err)
	}
	if n := reload.Cache().Stats().Entries; n == 0 {
		t.Error("snapshot did not reload on a fresh server")
	}
	reload.Drain(context.Background())

	// ...and new work is refused, both directly and over HTTP.
	if _, err := srv.Submit(tinyExperiments()); err == nil {
		t.Error("Submit accepted during drain")
	}
	if _, code := postJob(t, ts, tinyExperiments()); code != http.StatusServiceUnavailable {
		t.Errorf("POST during drain: code %d, want 503", code)
	}
	if err := srv.Drain(context.Background()); err == nil {
		t.Error("second Drain should fail")
	}
}

func TestServerFailedJobArtifactNotServedRaw(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// An unknown benchmark fails after the engine has started writing
	// nothing — the artifact endpoint must refuse, not serve partial bytes
	// with a 200.
	id, err := srv.Submit(Job{Kind: KindRun, Run: &RunJob{Ubench: "NOPE"}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, ts, id)
	if st.Status != "failed" {
		t.Fatalf("job status %s, want failed", st.Status)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("failed job artifact answered %d, want 409", resp.StatusCode)
	}
	srv.Drain(context.Background())
}

func TestServerAbortedDrainStillCheckpoints(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "abort-cache.json")
	srv, err := NewServer(ServerOptions{CachePath: cachePath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Something computed, then the worker kept busy so the pre-cancelled
	// context wins the select.
	id, err := srv.Submit(Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, id)
	if _, err := srv.Submit(tinyExperiments()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = srv.Drain(ctx)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "cache entries to "+cachePath) {
		t.Fatalf("aborted drain: %v, want the context error saying what it saved", err)
	}
	// The snapshot was saved anyway — nothing already computed is lost.
	if n, err := simcache.New().LoadFile(cachePath); err != nil || n == 0 {
		t.Errorf("aborted drain saved %d entries (%v)", n, err)
	}
}

func TestServerQueueBound(t *testing.T) {
	srv, err := NewServer(ServerOptions{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Block the single worker with a slow-ish job, then fill the queue.
	if _, err := srv.Submit(tinyExperiments()); err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}}); err != nil {
			if !strings.Contains(err.Error(), "queue is full") {
				t.Fatalf("unexpected submit error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Error("queue never reported full at depth 1")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestServerRetiresOldFinishedJobs(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv.keepJobs = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		id, err := srv.Submit(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The oldest finished job is evicted; the two most recent survive.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job answered %d, want 404", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if st := getStatus(t, ts, id); st.Status != "done" {
			t.Errorf("retained job %s: %s", id, st.Status)
		}
	}
	// The listing skips the evicted id instead of crashing on it.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing) != 2 {
		t.Errorf("listing has %d jobs, want 2", len(listing))
	}
}

func TestServerProgressRing(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv.keepLog = 5
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Non-quiet experiments jobs stream scenario progress on stderr, which
	// the server folds into the progress ring.
	job := tinyExperiments()
	job.Experiments.Quiet = false
	id, err := srv.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain(context.Background())
	st := getStatus(t, ts, id)
	if len(st.Progress) == 0 || len(st.Progress) > 5 {
		t.Fatalf("progress ring size %d, want 1..5: %v", len(st.Progress), st.Progress)
	}
	var sawScenario bool
	for _, line := range st.Progress {
		if strings.Contains(line, "cache:") || strings.Contains(line, "scenario:") || strings.Contains(line, "timing:") {
			sawScenario = true
		}
	}
	if !sawScenario {
		t.Errorf("progress lines look wrong: %v", st.Progress)
	}
}

// TestEndpointTableMatchesHandler: every `METHOD /path` row of docs/cli.md's
// endpoint table is a route Server.Handler() registers — the request reaches
// a handler of ours, not the mux's own 404 or 405 — and the table has the
// thirteen rows the handler has routes.
func TestEndpointTableMatchesHandler(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "cli.md"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	mux, ok := srv.Handler().(*http.ServeMux)
	if !ok {
		t.Fatalf("Server.Handler() is a %T, not the mux this test asks for patterns", srv.Handler())
	}
	rows := regexp.MustCompile("(?m)^\\| `((?:GET|POST|PUT|DELETE|PATCH) /[^`]*)` \\|").FindAllStringSubmatch(string(doc), -1)
	if len(rows) != 13 {
		t.Errorf("docs/cli.md's endpoint table has %d rows, want 13", len(rows))
	}
	for _, row := range rows {
		method, path, _ := strings.Cut(row[1], " ")
		req := httptest.NewRequest(method, strings.ReplaceAll(path, "{id}", "job-000001"), nil)
		if _, pattern := mux.Handler(req); pattern != row[1] {
			t.Errorf("docs/cli.md lists %q; the handler routes it to %q", row[1], pattern)
		}
	}
}

// TestJobExamplesDecode keeps docs/cli.md's job schema honest: every
// ```jsonc block there is, comments stripped, a sequence of jobs POST
// /v1/jobs would decode — no field the Job type does not have — and Check
// accepts.
func TestJobExamplesDecode(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "cli.md"))
	if err != nil {
		t.Fatal(err)
	}
	comment := regexp.MustCompile(`(?m)(^|\s)//.*$`)
	jobs := 0
	for _, block := range regexp.MustCompile("(?s)```jsonc\n(.*?)```").FindAllStringSubmatch(string(doc), -1) {
		dec := json.NewDecoder(strings.NewReader(comment.ReplaceAllString(block[1], "")))
		dec.DisallowUnknownFields()
		for dec.More() {
			var job Job
			if err := dec.Decode(&job); err != nil {
				t.Fatalf("docs/cli.md job example %d: %v", jobs+1, err)
			}
			if err := job.Check(); err != nil {
				t.Errorf("docs/cli.md job example %d: %v", jobs+1, err)
			}
			jobs++
		}
	}
	if jobs < 4 {
		t.Errorf("docs/cli.md holds %d job examples, want one per kind", jobs)
	}
}
