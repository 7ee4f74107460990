package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// transport is the network attach point: an http.RoundTripper that
// injects faults around an inner transport per the seeded schedule.
type transport struct {
	inj   *Injector
	inner http.RoundTripper
}

// Transport wraps an http.RoundTripper (nil = http.DefaultTransport)
// with the injector's network faults. A nil injector returns inner
// unchanged.
func (i *Injector) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if i == nil {
		return inner
	}
	return &transport{inj: i, inner: inner}
}

// DropError is the transport error of an injected drop, so tests and
// logs can tell injected faults from real network failures.
type DropError struct{ Path string }

func (e *DropError) Error() string {
	return fmt.Sprintf("chaos: injected drop of %s", e.Path)
}

// CloseIdleConnections forwards to the inner transport, which owns the
// connections (http.Client.CloseIdleConnections looks for this method).
func (t *transport) CloseIdleConnections() {
	if ci, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := t.inj
	s := i.spec

	// Request-side faults first: a dropped request never reaches the
	// server (closing the body is the RoundTripper contract on error).
	if s.Drop > 0 && i.draw() < s.Drop {
		i.count(func(c *Counts) { c.Dropped++ })
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &DropError{Path: req.URL.Path}
	}
	if s.Delay > 0 && i.draw() < s.Delay {
		d := time.Duration(i.draw() * float64(s.DelayMax))
		i.count(func(c *Counts) { c.Delayed++ })
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}

	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}

	// Response-side faults. A synthesized 5xx replaces the whole
	// response; truncation and corruption mutate the body bytes in ways
	// no JSON (or length-checked) consumer can mistake for the real
	// payload.
	if s.Fail > 0 && i.draw() < s.Fail {
		i.count(func(c *Counts) { c.Failed++ })
		resp.Body.Close()
		body := `{"error":"chaos: injected server failure"}`
		return &http.Response{
			Status:        "500 Internal Server Error (chaos)",
			StatusCode:    http.StatusInternalServerError,
			Proto:         resp.Proto,
			ProtoMajor:    resp.ProtoMajor,
			ProtoMinor:    resp.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	truncate := s.Truncate > 0 && i.draw() < s.Truncate
	corrupt := s.Corrupt > 0 && i.draw() < s.Corrupt
	if !truncate && !corrupt {
		return resp, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if truncate && len(data) > 0 {
		i.count(func(c *Counts) { c.Truncated++ })
		data = data[:int(i.draw()*float64(len(data)))]
	}
	if corrupt && len(data) > 0 {
		// Zero a range: inside a JSON string the NUL is an invalid
		// control character, outside it an invalid token — either way the
		// consumer's decode fails instead of reading altered values.
		i.count(func(c *Counts) { c.Corrupted++ })
		from := int(i.draw() * float64(len(data)))
		to := from + 1 + int(i.draw()*16)
		if to > len(data) {
			to = len(data)
		}
		for k := from; k < to; k++ {
			data[k] = 0
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	resp.ContentLength = int64(len(data))
	resp.Header.Del("Content-Length")
	return resp, nil
}

func (i *Injector) count(f func(*Counts)) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f(&i.counts)
}

// JobFault is the engine attach point, called once per job execution
// inside the engine's panic-recovery scope. On the PanicJob'th call it
// panics (exercising worker-pool recovery); on the StallJob'th call it
// stalls for StallFor or until ctx expires (exercising job deadlines).
// Safe on a nil injector.
func (i *Injector) JobFault(ctx context.Context) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	i.jobs++
	n := i.jobs
	doPanic := i.spec.PanicJob > 0 && n == i.spec.PanicJob
	doStall := i.spec.StallJob > 0 && n == i.spec.StallJob
	if doPanic {
		i.counts.Panics++
	}
	if doStall {
		i.counts.Stalls++
	}
	i.mu.Unlock()
	if doPanic {
		panic(fmt.Sprintf("chaos: injected panic in job %d", n))
	}
	if doStall {
		select {
		case <-time.After(i.spec.StallFor):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// MutateSnapshot is the cache-delta attach point: on the PoisonDelta'th
// call it corrupts the snapshot bytes via poison (supplied by the cache
// layer, which owns the format), so the receiving side must prove its
// checksum rejection. Other calls pass data through untouched. Safe on a
// nil injector.
func (i *Injector) MutateSnapshot(data []byte, poison func([]byte) ([]byte, error)) []byte {
	if i == nil {
		return data
	}
	i.mu.Lock()
	i.deltas++
	doPoison := i.spec.PoisonDelta > 0 && i.deltas == i.spec.PoisonDelta
	i.mu.Unlock()
	if !doPoison {
		return data
	}
	bad, err := poison(data)
	if err != nil {
		// An unpoisonable snapshot (e.g. zero entries) is passed through;
		// the counter only moves when a fault actually fired.
		return data
	}
	i.count(func(c *Counts) { c.Poisoned++ })
	return bad
}
