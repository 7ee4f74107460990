package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"racesim/internal/telemetry"
)

// Client is a typed client for the serve HTTP API (see Server.Handler).
// It is what the distributed sweep coordinator (internal/cluster) speaks
// to every worker, and the reference implementation of the API's
// client-side contract: back-pressure (429 + Retry-After) is honored by
// waiting and resubmitting, a broken event stream is re-opened a
// bounded number of times, and every error carries the server's own
// error message when one was sent.
type Client struct {
	// BaseURL is the worker's root URL, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Log receives retry/back-pressure notices; nil discards them.
	Log func(format string, args ...any)

	// retries bounds back-pressure resubmissions in Submit and tolerated
	// consecutive event-stream failures in Watch: clientRetries, lowered or
	// raised only by tests.
	retries int

	// req carries every request but an event stream, under requestTimeout;
	// stream carries the event streams, which outlive any per-request
	// bound and end through the caller's context.
	req, stream *http.Client
}

const (
	// requestTimeout bounds every request but an event stream. A wedged
	// worker then surfaces as a request error the retry budget absorbs — or,
	// once exhausted, fails the unit — instead of hanging the caller forever.
	// An event stream (Watch) runs as long as its context allows: the bound
	// is per request, never per job.
	requestTimeout = 60 * time.Second
	clientRetries  = 4
)

// Backoff is the one retry schedule of everything that talks to a worker:
// the wait after failed attempt number attempt (0-based) is 500ms doubled
// per attempt, capped at 30s. Submit waits it between back-pressured
// submissions the server sent no Retry-After for; the sweep coordinator
// (internal/cluster) waits it between startup tries, before redispatching
// a failed unit and before each health probe of a quarantined worker.
func Backoff(attempt int) time.Duration {
	// Past attempt 6 (32s) the shift would only grow what the cap cuts.
	return min(500*time.Millisecond<<min(attempt, 6), 30*time.Second)
}

// ErrUnreachable wraps transport-level failures of Health: the worker
// did not answer at all (connection refused, timeout, DNS), as opposed
// to answering that it is draining (a reachable server reports
// Status "draining" in the Health body with no error). Callers deciding
// between "worker is gone" and "worker is shutting down cleanly" match
// with errors.Is.
var ErrUnreachable = errors.New("engine: worker unreachable")

// NewClient returns a client for a worker base URL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		retries: clientRetries,
		req:     &http.Client{Timeout: requestTimeout},
		stream:  &http.Client{},
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// apiErrorOf extracts the server's error message from a non-2xx
// response, falling back to the status line.
func apiErrorOf(resp *http.Response, body []byte) error {
	var ae apiError
	if err := json.Unmarshal(body, &ae); err == nil && ae.Error != "" {
		return fmt.Errorf("%s: %s", resp.Request.URL.Path, ae.Error)
	}
	return fmt.Errorf("%s: %s", resp.Request.URL.Path, resp.Status)
}

// call sends req and reads the whole answer: every request but an event
// stream or a snapshot download goes through it. An answer whose status is
// not want is the server's error; resp is nil only when nothing answered.
func (c *Client) call(req *http.Request, want int) (resp *http.Response, data []byte, err error) {
	if resp, err = c.req.Do(req); err != nil {
		return nil, nil, err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return resp, data, apiErrorOf(resp, data)
	}
	return resp, data, err
}

// Submit posts a job and returns its server-assigned ID. A 429 answer
// (queue full) is back-pressure, not failure: Submit waits the server's
// Retry-After hint (or Backoff when absent) and resubmits, up to
// clientRetries times.
func (c *Client) Submit(ctx context.Context, job Job) (string, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return "", err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		if sc := telemetry.SpanFromContext(ctx); sc.Valid() {
			// Propagate the caller's span so the worker parents its job
			// span under it — the coordinator → worker trace hop.
			req.Header.Set(telemetry.TraceHeader, sc.Header())
		}
		resp, data, err := c.call(req, http.StatusAccepted)
		if resp != nil && resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries {
			delay := Backoff(attempt)
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
					delay = time.Duration(secs) * time.Second
				}
			}
			c.logf("client: %s: queue full, retrying in %v", c.BaseURL, delay)
			select {
			case <-time.After(delay):
				continue
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		if err != nil {
			return "", err
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &out); err != nil || out.ID == "" {
			return "", fmt.Errorf("submit: malformed response %q", data)
		}
		return out.ID, nil
	}
}

// getJSON fetches path and decodes the JSON body into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	_, data, err := c.call(req, http.StatusOK)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// Status fetches one job's status (result included once finished).
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Health fetches the worker's liveness and cache statistics. A
// transport-level failure (nothing answered) is wrapped in
// ErrUnreachable; a draining server answers normally with Status
// "draining" — the two are different conditions and callers (the
// cluster circuit breaker, probe re-admission) treat them differently.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, data, err := c.call(req, http.StatusOK)
	if resp == nil && err != nil {
		err = fmt.Errorf("%w: %s: %v", ErrUnreachable, c.BaseURL, err)
	}
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(data, &h)
}

// Cancel asks the worker to cancel a queued or running job (DELETE
// /v1/jobs/{id}). It returns the server's immediate view: "cancelled"
// for a job that never started, "cancelling" for one being unwound.
func (c *Client) Cancel(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", err
	}
	_, data, err := c.call(req, http.StatusAccepted)
	if err != nil {
		return "", err
	}
	var out struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return "", fmt.Errorf("cancel %s: malformed response %q", id, data)
	}
	return out.Status, nil
}

// CloseIdleConnections closes the keep-alive connections both of the
// client's HTTP clients hold but are not using. A caller that is done with
// a worker calls it before telling the worker to stop: a server's graceful
// shutdown waits out a connection that was dialled and never carried a
// request (net/http counts it active until it is five seconds old).
func (c *Client) CloseIdleConnections() {
	c.req.CloseIdleConnections()
	c.stream.CloseIdleConnections()
}

// Watch follows a job to its terminal state over the live event stream
// (GET /v1/jobs/{id}/events) and returns the final status — the value
// Status returns then, since the stream's terminal event carries the
// GET /v1/jobs/{id} body byte-for-byte. A stream that breaks (transport
// error, truncation, a non-stream answer) is re-opened after pause
// (default 150ms): the server replays the job's retained progress and
// current state to every subscriber, so a reconnect misses nothing. Watch
// gives up after more than clientRetries consecutive attempts that delivered no
// state at all (a worker restarting its network stack should not fail the
// unit; a worker that is gone should).
func (c *Client) Watch(ctx context.Context, id string, pause time.Duration) (JobStatus, error) {
	if pause <= 0 {
		pause = 150 * time.Millisecond
	}
	failures := 0
	for {
		st, alive, err := c.watchEvents(ctx, id)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return JobStatus{}, ctx.Err()
		}
		if alive {
			failures = 0
		}
		failures++
		if failures > c.retries {
			return JobStatus{}, fmt.Errorf("job %s: %d consecutive event-stream failures: %w", id, failures, err)
		}
		c.logf("client: %s: job %s event stream failed (%v); reconnecting", c.BaseURL, id, err)
		select {
		case <-time.After(pause):
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
	}
}

// watchEvents consumes the SSE stream until a terminal state event. alive
// reports that the stream delivered at least one state event before it
// failed: the worker is there and knows the job.
func (c *Client) watchEvents(ctx context.Context, id string) (_ JobStatus, alive bool, _ error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return JobStatus{}, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.stream.Do(req)
	if err != nil {
		return JobStatus{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return JobStatus{}, false, apiErrorOf(resp, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		return JobStatus{}, false, fmt.Errorf("job %s: events endpoint answered %q", id, ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // state events carry whole results
	var event string
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Event boundary: dispatch what we accumulated.
			if event == "state" && len(data) > 0 {
				// Reconstruct the exact polled body: the server split it on
				// newlines, and every body ends with exactly one newline.
				body := strings.Join(data, "\n") + "\n"
				var st JobStatus
				if err := json.Unmarshal([]byte(body), &st); err != nil {
					return JobStatus{}, alive, fmt.Errorf("job %s: malformed state event: %w", id, err)
				}
				switch st.Status {
				case "done", "failed", "cancelled":
					return st, true, nil
				}
				alive = true
			}
			event, data = "", nil
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):])
		case strings.HasPrefix(line, ":"):
			// comment/keepalive
		}
	}
	if err := sc.Err(); err != nil {
		return JobStatus{}, alive, err
	}
	return JobStatus{}, alive, fmt.Errorf("job %s: event stream ended before a terminal state", id)
}

// ExportSnapshot downloads the worker's shared-cache snapshot; with
// delta, only entries computed since the last import (the worker's own
// contribution).
func (c *Client) ExportSnapshot(ctx context.Context, delta bool) ([]byte, error) {
	rc, err := c.SnapshotReader(ctx, delta)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// SnapshotReader opens the worker's shared-cache snapshot as a stream, for
// consumers that merge as they read (simcache.LoadStream) instead of
// buffering the whole snapshot. The caller must Close the reader.
func (c *Client) SnapshotReader(ctx context.Context, delta bool) (io.ReadCloser, error) {
	path := "/v1/cache/snapshot"
	if delta {
		path += "?delta=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.req.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, apiErrorOf(resp, data)
	}
	return resp.Body, nil
}

// ImportSnapshot merges snapshot bytes into the worker's shared cache
// (checksum-verified, last-writer-wins) and resets its delta baseline.
func (c *Client) ImportSnapshot(ctx context.Context, data []byte) (SnapshotReport, error) {
	return c.ImportSnapshotFrom(ctx, bytes.NewReader(data))
}

// ImportSnapshotFrom streams a snapshot body from r into the worker's
// shared cache — records flow from the source to the worker without the
// snapshot ever being buffered whole on the sending side.
func (c *Client) ImportSnapshotFrom(ctx context.Context, r io.Reader) (SnapshotReport, error) {
	var rep SnapshotReport
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/cache/snapshot", r)
	if err != nil {
		return rep, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	_, body, err := c.call(req, http.StatusOK)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(body, &rep)
}

// MissingKeys asks the worker which of hashes — the key hashes of the
// records a coordinator could send it (simcache.Cache.KeyHashes), ascending
// and without repeats — its shared cache lacks, and returns their positions
// in hashes, ascending. The question moves the worker's delta baseline as
// an import does. An answer that is not such a list of positions is an
// error.
func (c *Client) MissingKeys(ctx context.Context, hashes []uint64) ([]int, error) {
	body := make([]byte, 8*len(hashes))
	for i, h := range hashes {
		binary.LittleEndian.PutUint64(body[8*i:], h)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/cache/missing", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	_, data, err := c.call(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var rep missingReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("/v1/cache/missing: %w", err)
	}
	if rep.Missing == nil {
		return nil, fmt.Errorf("/v1/cache/missing: the answer lists no positions")
	}
	for i, p := range rep.Missing {
		if p < 0 || p >= len(hashes) || i > 0 && p <= rep.Missing[i-1] {
			return nil, fmt.Errorf("/v1/cache/missing: position %d of the answer is %d, for %d key hashes", i, p, len(hashes))
		}
	}
	return rep.Missing, nil
}
