package engine

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"racesim/internal/telemetry/telemetrytest"
)

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// hasSample reports whether the exposition contains a sample line for
// the given series prefix (name plus any label signature) with a
// nonzero value.
func hasNonzeroSample(text, prefix string) bool {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v := fields[len(fields)-1]; v != "0" && v != "0.000000" {
			return true
		}
	}
	return false
}

// sampleValue returns the value of the one sample line of series (name
// plus label signature) in the exposition.
func sampleValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("no sample of %s", series)
	return 0
}

func TestMetricsEndpoint(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	c := NewClient(ts.URL)
	// An experiments job (exercises the job counters) plus a run job
	// (actually simulates, so the cache counters move).
	for _, job := range []Job{
		tinyExperiments(),
		{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}},
	} {
		id, err := c.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.Watch(ctx, id, 10*time.Millisecond); err != nil || st.Status != "done" {
			t.Fatalf("%s job: %v / %+v", job.Kind, err, st)
		}
	}
	// The server counts an event stream closed only after it has sent the
	// last event; wait for that, or the two scrapes below race it.
	for deadline := time.Now().Add(5 * time.Second); srv.sseStreams.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	text := scrape(t, ts)
	if err := telemetrytest.ValidatePrometheus(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}

	for _, want := range []string{
		`racesim_build_info{`,
		`racesim_jobs_submitted_total{kind="experiments"}`,
		`racesim_jobs_total{kind="experiments",status="done"}`,
		`racesim_job_run_seconds_bucket{kind="experiments",le="+Inf"}`,
		`racesim_job_wait_seconds_count{kind="experiments"}`,
		`racesim_cache_misses_total`,
		`racesim_cache_aliased_total`,
		`racesim_sim_simulations_total{kind="ooo"}`,
		`racesim_sim_events_total{kind="ooo"}`,
		`racesim_cache_entries{tier="total"}`,
		`racesim_tracememo_entries`,
		`racesim_job_queue_depth`,
		`racesim_sse_streams`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing series %q", want)
		}
	}
	for _, nonzero := range []string{
		`racesim_build_info{`,
		`racesim_jobs_total{kind="experiments",status="done"}`,
		`racesim_jobs_submitted_total{kind="experiments"}`,
		`racesim_cache_misses_total`,
		`racesim_sim_simulations_total{kind="inorder"}`,
		`racesim_sim_events_total{kind="inorder"}`,
	} {
		if !hasNonzeroSample(text, nonzero) {
			t.Errorf("series %q is zero after a completed simulating job", nonzero)
		}
	}
	// The work counters are the cache's: every miss either simulated or
	// was aliased, and the events are the work: line's.
	st := srv.cache.Stats()
	for series, want := range map[string]uint64{
		`racesim_cache_misses_total`:                    st.InOrderSims + st.OoOSims + st.Aliased,
		`racesim_cache_aliased_total`:                   st.Aliased,
		`racesim_sim_simulations_total{kind="inorder"}`: st.InOrderSims,
		`racesim_sim_simulations_total{kind="ooo"}`:     st.OoOSims,
		`racesim_sim_events_total{kind="inorder"}`:      st.InOrderEvents,
		`racesim_sim_events_total{kind="ooo"}`:          st.OoOEvents,
	} {
		if got := sampleValue(t, text, series); got != float64(want) {
			t.Errorf("%s = %v, want %d", series, got, want)
		}
	}

	// Two scrapes must render identically when nothing changed in
	// between: deterministic ordering is part of the contract.
	if again := scrape(t, ts); again != text {
		t.Error("consecutive scrapes differ with no intervening activity")
	}
	srv.Drain(ctx)
}

func TestHealthCarriesBuildInfo(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	h, err := NewClient(ts.URL).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Build.Version == "" || h.Build.GoVersion == "" || h.Build.Commit == "" {
		t.Errorf("healthz build info incomplete: %+v", h.Build)
	}
	srv.Drain(context.Background())
}
