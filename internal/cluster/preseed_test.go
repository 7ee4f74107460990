package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"racesim/internal/cluster"
	"racesim/internal/engine"
	"racesim/internal/simcache"
)

// seenWorker is an in-process serve worker whose log lines and key-hash
// exchanges the test can read.
type seenWorker struct {
	url    string
	client *engine.Client
	asked  atomic.Int32 // POST /v1/cache/missing requests answered

	mu  sync.Mutex
	log []string
}

func startSeenWorker(t *testing.T) *seenWorker {
	t.Helper()
	w := &seenWorker{}
	srv, err := engine.NewServer(engine.ServerOptions{Parallelism: 2, Log: func(format string, args ...any) {
		w.mu.Lock()
		w.log = append(w.log, fmt.Sprintf(format, args...))
		w.mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cache/missing" {
			w.asked.Add(1)
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), tinyTimeout)
		defer cancel()
		srv.Drain(ctx)
	})
	w.url, w.client = ts.URL, engine.NewClient(ts.URL)
	return w
}

// imports returns the worker's "imported snapshot (...)" reports so far.
func (w *seenWorker) imports() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, l := range w.log {
		if _, report, ok := strings.Cut(l, "imported snapshot "); ok {
			out = append(out, report)
		}
	}
	return out
}

// importOf parses one import report.
func importOf(t *testing.T, report string) (added, replaced, rejected int) {
	t.Helper()
	if _, err := fmt.Sscanf(report, "(%d added, %d replaced, %d rejected)", &added, &replaced, &rejected); err != nil {
		t.Fatalf("import report %q: %v", report, err)
	}
	return added, replaced, rejected
}

var warmSnapshot struct {
	once sync.Once
	data []byte
	err  error
}

// warmCopy returns the path of a fresh copy of the snapshot a cold sweep
// of tinySelect saves, and its bytes: a cache file every later sweep of
// that selection answers wholly from.
func warmCopy(t *testing.T) (string, []byte) {
	t.Helper()
	warmSnapshot.once.Do(func() {
		_, tsA := startWorker(t)
		path := filepath.Join(t.TempDir(), "cold.snap")
		opts := tinyOptions(tsA.URL)
		opts.CachePath = path
		if _, _, warmSnapshot.err = cluster.Run(context.Background(), opts); warmSnapshot.err == nil {
			warmSnapshot.data, warmSnapshot.err = os.ReadFile(path)
		}
	})
	if warmSnapshot.err != nil {
		t.Fatal(warmSnapshot.err)
	}
	path := filepath.Join(t.TempDir(), "fed.snap")
	if err := os.WriteFile(path, warmSnapshot.data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, warmSnapshot.data
}

// seed imports snapshot bytes into the worker, as a sweep before this one
// would have left it.
func (w *seenWorker) seed(t *testing.T, data []byte) {
	t.Helper()
	if _, err := w.client.ImportSnapshot(context.Background(), data); err != nil {
		t.Fatal(err)
	}
}

// sweepLogged runs the sweep opts describes with the cache file at path,
// checks that it prints the single-process bytes, and returns its pre-seed
// line and report.
func sweepLogged(t *testing.T, opts cluster.Options, path string) (string, cluster.Report) {
	t.Helper()
	opts.CachePath = path
	var mu sync.Mutex
	var preseed string
	opts.Log = func(format string, args ...any) {
		if l := fmt.Sprintf(format, args...); strings.HasPrefix(l, "sweep: pre-seeded ") {
			mu.Lock()
			preseed = l
			mu.Unlock()
		}
	}
	got, rep, err := cluster.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchArtifact(t, opts.Scenario); got != want {
		t.Errorf("sweep differs from the single-process run:\nsweep:\n%s\nbatch:\n%s", got, want)
	}
	return preseed, rep
}

// TestPreseedSendsEachWorkerWhatItLacks: of three workers, the empty one
// is streamed the whole snapshot without being asked anything, the one
// holding every record is sent nothing, and the one holding half is sent
// exactly the other half. The round answers everything from cache, and a
// second round sends every worker nothing.
func TestPreseedSendsEachWorkerWhatItLacks(t *testing.T) {
	path, data := warmCopy(t)
	src := simcache.New()
	if _, _, err := src.LoadBytes(data); err != nil {
		t.Fatal(err)
	}
	hashes := src.KeyHashes()
	n := len(hashes)
	if n != src.Stats().Entries || n < 4 {
		t.Fatalf("the snapshot holds %d entries under %d key hashes", src.Stats().Entries, n)
	}
	var even []uint64
	for i := 0; i < n; i += 2 {
		even = append(even, hashes[i])
	}
	var half bytes.Buffer
	if err := src.WriteSubsetTo(&half, even); err != nil {
		t.Fatal(err)
	}

	empty, full, halfW := startSeenWorker(t), startSeenWorker(t), startSeenWorker(t)
	full.seed(t, data)
	halfW.seed(t, half.Bytes())
	if added, _, _ := importOf(t, halfW.imports()[0]); added != len(even) {
		t.Fatalf("the half worker was seeded with %d records, want %d", added, len(even))
	}

	line, rep := sweepLogged(t, tinyOptions(empty.url, full.url, halfW.url), path)
	if rep.Cache.Misses != 0 {
		t.Errorf("the round simulated %d times, want 0", rep.Cache.Misses)
	}
	want := fmt.Sprintf("sweep: pre-seeded 3 workers with %d entries (sent %d to %s, 0 to %s, %d to %s)",
		n, n, empty.url, full.url, n-len(even), halfW.url)
	if line != want {
		t.Errorf("pre-seed line\n %q, want\n %q", line, want)
	}
	if got := empty.asked.Load(); got != 0 {
		t.Errorf("the empty worker was asked %d times which records it lacks, want never", got)
	}
	if got := empty.imports(); len(got) != 1 || got[0] != fmt.Sprintf("(%d added, 0 replaced, 0 rejected)", n) {
		t.Errorf("the empty worker imported %q, want the whole snapshot once", got)
	}
	if got := full.imports(); len(got) != 1 {
		t.Errorf("the full worker imported %q after its seeding, want nothing", got[1:])
	}
	if got := halfW.imports(); len(got) != 2 || got[1] != fmt.Sprintf("(%d added, 0 replaced, 0 rejected)", n-len(even)) {
		t.Errorf("the half worker imported %q, want the other %d records once", got, n-len(even))
	}

	line, rep = sweepLogged(t, tinyOptions(empty.url, full.url, halfW.url), path)
	if rep.Cache.Misses != 0 {
		t.Errorf("the second round simulated %d times, want 0", rep.Cache.Misses)
	}
	if want := fmt.Sprintf("(sent 0 to %s, 0 to %s, 0 to %s)", empty.url, full.url, halfW.url); !strings.HasSuffix(line, want) {
		t.Errorf("second round's pre-seed line %q, want it to end %q", line, want)
	}
	for _, w := range []*seenWorker{empty, full, halfW} {
		if got := w.asked.Load(); got < 1 {
			t.Errorf("worker %s was not asked in the second round", w.url)
		}
	}
}

// TestPreseedExchangeMovesTheDeltaBaseline: a worker that is sent nothing
// hands back only what this round simulated. The exchange moves its delta
// baseline as an import would; without that, its delta would still reach
// back to its start and carry the last round's results again.
func TestPreseedExchangeMovesTheDeltaBaseline(t *testing.T) {
	w := startSeenWorker(t)
	path := filepath.Join(t.TempDir(), "fed.snap")
	opts := tinyOptions(w.url)
	opts.Scenario = "table1"
	sweepLogged(t, opts, path)
	first := simcache.New()
	if _, err := first.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	held := map[string]bool{}
	for _, k := range first.Keys() {
		held[k] = true
	}

	opts.Scenario = "table1,fig2"
	line, rep := sweepLogged(t, opts, path)
	if want := "(sent 0 to " + w.url + ")"; !strings.HasSuffix(line, want) {
		t.Fatalf("pre-seed line %q, want it to end %q", line, want)
	}
	if rep.Cache.Misses == 0 {
		t.Fatal("the second round simulated nothing: no delta to check")
	}
	data, err := w.client.ExportSnapshot(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	delta := simcache.New()
	if _, _, err := delta.LoadBytes(data); err != nil {
		t.Fatal(err)
	}
	again := 0
	for _, k := range delta.Keys() {
		if held[k] {
			again++
		}
	}
	if again > 0 || delta.Stats().Entries == 0 {
		t.Errorf("the worker's delta holds %d records, %d of them from the round before", delta.Stats().Entries, again)
	}
}

// faultOn wraps the default transport with one fault on every request to
// path.
type faultOn struct {
	path  string
	fault func(*http.Response) (*http.Response, error) // nil: drop the request
}

func (f faultOn) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != f.path {
		return http.DefaultTransport.RoundTrip(req)
	}
	if f.fault == nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected drop")
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	return f.fault(resp)
}

// rewriteBody replaces a response's body by edit of it.
func rewriteBody(edit func([]byte) []byte) func(*http.Response) (*http.Response, error) {
	return func(resp *http.Response) (*http.Response, error) {
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		data = edit(data)
		resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(data)), int64(len(data))
		resp.Header.Del("Content-Length")
		return resp, nil
	}
}

// TestPreseedFallsBackWhenTheExchangeFails: whatever goes wrong with the
// question — the request dropped, a 5xx, the answer truncated or corrupted
// — the worker is streamed the whole snapshot, and the sweep prints the
// single-process bytes.
func TestPreseedFallsBackWhenTheExchangeFails(t *testing.T) {
	faults := map[string]func(*http.Response) (*http.Response, error){
		"drop": nil,
		"5xx": func(resp *http.Response) (*http.Response, error) {
			resp.Body.Close()
			return &http.Response{
				Status: "500 Internal Server Error", StatusCode: http.StatusInternalServerError,
				Proto: resp.Proto, ProtoMajor: resp.ProtoMajor, ProtoMinor: resp.ProtoMinor,
				Header: http.Header{}, Body: io.NopCloser(strings.NewReader(`{"error":"injected"}`)),
				Request: resp.Request,
			}, nil
		},
		"truncate": rewriteBody(func(b []byte) []byte { return b[:len(b)/2] }),
		"corrupt": rewriteBody(func(b []byte) []byte {
			for i := len(b) / 3; i < len(b)/3+4 && i < len(b); i++ {
				b[i] = 0
			}
			return b
		}),
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			path, data := warmCopy(t)
			w := startSeenWorker(t)
			w.seed(t, data)
			opts := tinyOptions(w.url)
			opts.Transport = faultOn{path: "/v1/cache/missing", fault: fault}
			line, rep := sweepLogged(t, opts, path)
			if rep.Cache.Misses != 0 {
				t.Errorf("the round simulated %d times, want 0", rep.Cache.Misses)
			}
			if w.asked.Load() == 0 && fault != nil {
				t.Error("the worker was never asked: the fault was not exercised")
			}
			got := w.imports()
			if len(got) != 2 {
				t.Fatalf("the worker imported %q, want its seeding and one whole snapshot", got)
			}
			added, replaced, rejected := importOf(t, got[1])
			if added != 0 || rejected != 0 || replaced == 0 {
				t.Errorf("the fallback import reports %s, want every record replaced by itself", got[1])
			}
			if want := fmt.Sprintf("(sent %d to %s)", replaced, w.url); !strings.HasSuffix(line, want) {
				t.Errorf("pre-seed line %q, want it to end %q", line, want)
			}
		})
	}
}
