package engine

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"racesim/internal/telemetry"
)

// sseEvent is a decoded test-side Server-Sent Event.
type sseEvent struct {
	kind string
	data string // reconstructed payload: join(data lines, "\n") + "\n"
}

// readSSE consumes an event stream to EOF (the server closes it after
// the terminal state event).
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var events []sseEvent
	var kind string
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if kind != "" {
				events = append(events, sseEvent{kind: kind, data: strings.Join(data, "\n") + "\n"})
			}
			kind, data = "", nil
		case strings.HasPrefix(line, "event: "):
			kind = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return events
}

// TestServerEventsStreamMatchesPolled is the SSE contract test: the
// stream's terminal state event must be byte-for-byte the body a polled
// GET /v1/jobs/{id} returns, and the progress events must agree with
// the polled progress ring.
func TestServerEventsStreamMatchesPolled(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job := tinyExperiments()
	job.Experiments.Quiet = false // stream scenario progress into the ring
	id, err := srv.Submit(job)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("Content-Type = %q", got)
	}
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	final := events[len(events)-1]
	if final.kind != "state" {
		t.Fatalf("stream did not end with a state event: %+v", final)
	}

	// Byte-for-byte: the terminal event's payload vs the polled body.
	get, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	polled, err := io.ReadAll(get.Body)
	get.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final.data != string(polled) {
		t.Errorf("terminal SSE state != polled body\n--- sse ---\n%s\n--- polled ---\n%s", final.data, polled)
	}

	// The progress events, in order, must end with exactly the polled
	// ring contents (the ring keeps the most recent lines; the stream saw
	// every line since it subscribed at submission).
	var progress []string
	for _, ev := range events {
		if ev.kind == "progress" {
			progress = append(progress, strings.TrimSuffix(ev.data, "\n"))
		}
	}
	st := getStatus(t, ts, id)
	if st.Status != "done" {
		t.Fatalf("job %s: %+v", st.Status, st)
	}
	if len(st.Progress) == 0 || len(progress) < len(st.Progress) {
		t.Fatalf("progress: stream %d lines, polled %d", len(progress), len(st.Progress))
	}
	tail := progress[len(progress)-len(st.Progress):]
	for i := range tail {
		if tail[i] != st.Progress[i] {
			t.Fatalf("stream progress diverges from polled ring at %d: %q != %q\nstream: %v\npolled: %v",
				i, tail[i], st.Progress[i], progress, st.Progress)
		}
	}
}

// TestServerEventsAfterCompletion: subscribing to a finished job replays
// the retained lines and the terminal state, then ends immediately.
func TestServerEventsAfterCompletion(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, err := srv.Submit(tinyExperiments())
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain(context.Background())

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) == 0 || events[len(events)-1].kind != "state" {
		t.Fatalf("late subscription events: %+v", events)
	}
	get, _ := http.Get(ts.URL + "/v1/jobs/" + id)
	polled, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if events[len(events)-1].data != string(polled) {
		t.Error("late subscription terminal state != polled body")
	}
}

// TestClientWatch: the SSE watcher returns the same terminal status
// GET /v1/jobs/{id} does.
func TestClientWatch(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	c := NewClient(ts.URL)
	id, err := c.Submit(ctx, tinyExperiments())
	if err != nil {
		t.Fatal(err)
	}
	watched, err := c.Watch(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if watched.Status != "done" || watched.Result == nil {
		t.Fatalf("watched: %+v", watched)
	}
	polled, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if watched.ID != polled.ID || watched.Status != polled.Status ||
		watched.Result.Artifact != polled.Result.Artifact {
		t.Error("watched status diverges from polled status")
	}
}

// TestClientWatchReconnects: a broken event stream is re-opened, and the
// server's replay makes the reconnect a full resume — Watch ends on the
// status Status reports. The endpoint failing outright or cutting the
// stream mid-body up to retries times in a row is absorbed; once more is
// an error naming the job; a cancelled context is the context's error.
func TestClientWatchReconnects(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int32 // event-stream requests still to break
	var cut atomic.Bool       // break them mid-body instead of answering 500
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case failures.Add(-1) < 0:
			srv.Handler().ServeHTTP(w, r)
		case cut.Load():
			w.Header().Set("Content-Type", "text/event-stream")
			io.WriteString(w, "event: progress\ndata: half a str")
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		default:
			http.Error(w, "injected", http.StatusInternalServerError)
		}
	})
	mux.Handle("/", srv.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ctx := context.Background()

	c := NewClient(ts.URL)
	c.retries = 2
	id, err := c.Submit(ctx, tinyExperiments())
	if err != nil {
		t.Fatal(err)
	}
	for _, midBody := range []bool{false, true} {
		cut.Store(midBody)
		failures.Store(int32(c.retries))
		watched, err := c.Watch(ctx, id, time.Millisecond)
		if err != nil {
			t.Fatalf("cut mid-body %v: %v", midBody, err)
		}
		if left := failures.Load(); left >= 0 {
			t.Fatalf("cut mid-body %v: %d injected failures never met", midBody, left+1)
		}
		polled, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if watched.Status != "done" || !reflect.DeepEqual(watched, polled) {
			t.Errorf("cut mid-body %v: watched status diverges from polled status", midBody)
		}
	}

	failures.Store(int32(c.retries) + 1)
	if _, err := c.Watch(ctx, id, time.Millisecond); err == nil || !strings.Contains(err.Error(), id) {
		t.Errorf("%d failures in a row: got %v, want an error naming %s", c.retries+1, err, id)
	}

	failures.Store(1 << 30)
	patient := NewClient(ts.URL)
	patient.retries = 1 << 30
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := patient.Watch(cctx, id, time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled watch: got %v, want the context's error", err)
	}
}

// TestTraceHeaderProducesSpans: a job submitted with X-Racesim-Trace
// returns worker and engine spans forming one tree under the
// submitter's span.
func TestTraceHeaderProducesSpans(t *testing.T) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	parent := telemetry.SpanContext{Trace: telemetry.NewID(), Span: telemetry.NewID()}
	c := NewClient(ts.URL)
	id, err := c.Submit(telemetry.ContextWithSpan(ctx, parent), tinyExperiments())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Watch(ctx, id, 10*time.Millisecond)
	if err != nil || st.Status != "done" {
		t.Fatalf("job: %v / %+v", err, st.Status)
	}
	spans := st.Result.Spans
	byName := map[string]telemetry.Span{}
	for _, sp := range spans {
		if sp.Trace != parent.Trace {
			t.Errorf("span %s left the trace: %q", sp.Name, sp.Trace)
		}
		byName[sp.Name] = sp
	}
	for _, name := range []string{"job", "queue", "run", "engine", "simcache"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing span %q in %v", name, spans)
		}
	}
	if byName["job"].Parent != parent.Span {
		t.Error("job span not parented under the submitted context")
	}
	if byName["queue"].Parent != byName["job"].ID || byName["run"].Parent != byName["job"].ID {
		t.Error("queue/run spans not parented under the job span")
	}
	if byName["engine"].Parent != byName["run"].ID {
		t.Error("engine span not parented under the run span")
	}
	if byName["simcache"].Parent != byName["engine"].ID {
		t.Error("simcache span not parented under the engine span")
	}
	if byName["job"].Attrs["status"] != "done" || byName["job"].Attrs["id"] != id {
		t.Errorf("job span attrs: %v", byName["job"].Attrs)
	}

	// An untraced submission must carry no spans at all.
	id2, err := c.Submit(ctx, tinyExperiments())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Watch(ctx, id2, 10*time.Millisecond)
	if err != nil || st2.Status != "done" {
		t.Fatalf("untraced job: %v / %+v", err, st2.Status)
	}
	if len(st2.Result.Spans) != 0 {
		t.Errorf("untraced job produced spans: %v", st2.Result.Spans)
	}
}
