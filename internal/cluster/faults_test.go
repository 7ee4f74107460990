package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"racesim/internal/engine"
	"racesim/internal/simcache"
)

// fault is what a fault handler does to one request.
type fault int

const (
	pass     fault = iota
	drop           // the connection is cut before an answer
	delay          // the worker sees the request up to 10 ms late
	fail5xx        // the worker answers, the client gets a 500 instead
	truncate       // the answer breaks off part way: the connection is cut
	corrupt        // 1 to 16 bytes of the answer are zeroed
	poison         // one record of a snapshot answer fails its checksum
	failUnit       // a job submission answers 500 without reaching the worker
	numFaults
)

var faultNames = [numFaults]string{"pass", "drop", "delay", "5xx", "truncate", "corrupt", "poison", "unit failure"}

// faults is a seeded fault schedule shared by the handlers it puts in front
// of a test's workers: choose picks the fault of each request (unit names
// the unit of a job submission) from what the schedule has seen so far,
// and the seeded draws place each delay, cut and zeroed range.
type faults struct {
	choose func(f *faults, r *http.Request, unit string) fault

	mu    sync.Mutex
	rng   *rand.Rand
	n     int                     // requests seen before this one
	fired [numFaults]atomic.Int32 // faults that took effect, by kind
}

func newFaults(seed int64, choose func(f *faults, r *http.Request, unit string) fault) *faults {
	return &faults{choose: choose, rng: rand.New(rand.NewSource(seed))}
}

// onPath faults every request to path with k.
func onPath(path string, k fault) func(*faults, *http.Request, string) fault {
	return func(_ *faults, r *http.Request, _ string) fault {
		if r.URL.Path == path {
			return k
		}
		return pass
	}
}

// front puts the schedule in front of a worker's handler; a nil schedule
// passes every request through.
func (f *faults) front(inner http.Handler) http.Handler {
	if f == nil {
		return inner
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { f.serve(inner, w, r) })
}

func (f *faults) serve(inner http.Handler, w http.ResponseWriter, r *http.Request) {
	var unit string
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var job engine.Job
		if json.Unmarshal(body, &job) == nil && job.Experiments != nil {
			unit = job.Experiments.Units
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	f.mu.Lock()
	k := f.choose(f, r, unit)
	f.n++
	at, span := f.rng.Float64(), f.rng.Float64()
	f.mu.Unlock()

	switch k {
	case pass:
		inner.ServeHTTP(w, r)
		return
	case drop:
		// The first bytes of a status line go out before the cut: a
		// connection closed before any byte of an answer is one net/http
		// takes for a closed idle connection and silently retries for a GET.
		conn, buf, err := http.NewResponseController(w).Hijack()
		if err != nil {
			panic(err)
		}
		f.fired[drop].Add(1)
		buf.WriteString("HTTP/1.1 ")
		buf.Flush()
		conn.Close()
		return
	case delay:
		f.fired[delay].Add(1)
		select {
		case <-time.After(time.Duration(at * float64(10*time.Millisecond))):
		case <-r.Context().Done():
		}
		inner.ServeHTTP(w, r)
		return
	case failUnit:
		f.fired[failUnit].Add(1)
		http.Error(w, "injected unit failure", http.StatusInternalServerError)
		return
	}

	rec := httptest.NewRecorder()
	inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	switch k {
	case fail5xx:
		f.fired[fail5xx].Add(1)
		http.Error(w, "injected server failure", http.StatusInternalServerError)
		return
	case corrupt:
		// Inside JSON a NUL is never valid, and inside a record it breaks
		// the checksum: the client cannot mistake the answer for the real one.
		if len(body) > 0 {
			from := int(at * float64(len(body)))
			for i := from; i < min(from+1+int(span*16), len(body)); i++ {
				body[i] = 0
			}
			f.fired[corrupt].Add(1)
		}
	case poison:
		if poisoned, err := simcache.PoisonSnapshot(body); err == nil {
			body = poisoned
			f.fired[poison].Add(1)
		}
	}
	for key, v := range rec.Header() {
		w.Header()[key] = v
	}
	w.WriteHeader(rec.Code)
	if k != truncate {
		w.Write(body)
		return
	}
	// Cut the connection after part of the answer has gone out.
	f.fired[truncate].Add(1)
	w.Write(body[:int(at*float64(len(body)))])
	http.NewResponseController(w).Flush()
	panic(http.ErrAbortHandler)
}

// TestDropIsATransportError: a dropped request reaches the client as a
// transport error, even a GET on a kept-alive connection, which net/http
// retries unseen when the connection closes before any byte of an answer.
func TestDropIsATransportError(t *testing.T) {
	f := newFaults(1, func(f *faults, _ *http.Request, _ string) fault {
		if f.n == 1 {
			return drop
		}
		return pass
	})
	_, ts := startWorkerBehind(t, f)
	c := engine.NewClient(ts.URL)
	defer c.CloseIdleConnections()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Health(context.Background()); !errors.Is(err, engine.ErrUnreachable) {
		t.Errorf("a dropped GET on a kept-alive connection: error %v, want a transport error", err)
	}
}
