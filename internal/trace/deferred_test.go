package trace

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// deferredCopy returns src in the deferred state, over a generator that
// yields a fresh copy of src and counts its runs.
func deferredCopy(t testing.TB, src *Trace, runs *atomic.Int32) *Trace {
	evs := eventsOf(t, src)
	return Deferred(src.Name, src.Identity(), func() (*Trace, error) {
		runs.Add(1)
		return New(src.Name, src.WarmData, evs...), nil
	})
}

// TestDeferredAnswersIdentityWithoutGenerating: everything a cache lookup
// or a report asks of a trace — name, length, flag, digest, identity — a
// deferred trace answers from what it was given; only a reader of events
// runs the generator, and what the readers then see is what an ordinary
// trace of the same content shows.
func TestDeferredAnswersIdentityWithoutGenerating(t *testing.T) {
	src := sampleTrace(t)
	src.WarmData = true
	var runs atomic.Int32
	tr := deferredCopy(t, src, &runs)

	if tr.Name != src.Name || tr.Len() != src.Len() || tr.WarmData != src.WarmData ||
		tr.Digest() != src.Digest() || tr.Identity() != src.Identity() {
		t.Errorf("deferred trace answers %q, %+v; want %q, %+v", tr.Name, tr.Identity(), src.Name, src.Identity())
	}
	if tr.Resident() != 0 || tr.cols.len() != 0 {
		t.Errorf("a deferred trace nobody read holds %d events", tr.Resident())
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("the generator ran %d times before anything read an event", n)
	}

	got, want := tr.Decoded(false), src.Decoded(false)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Name != want.Name || got.WarmData != want.WarmData || !reflect.DeepEqual(got.IDs, want.IDs) ||
		!reflect.DeepEqual(got.PC, want.PC) || !reflect.DeepEqual(got.MemAddr, want.MemAddr) ||
		!reflect.DeepEqual(got.Target, want.Target) || !reflect.DeepEqual(got.TakenBits, want.TakenBits) {
		t.Error("the decode of a materialized trace differs from the decode of the trace it was made from")
	}
	c, err := NewCursor(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev, ok := c.Next(); !ok || ev != eventsOf(t, src)[0] {
		t.Errorf("cursor over a materialized trace: first event %+v (ok %v)", ev, ok)
	}
	var a, b bytes.Buffer
	if _, err := tr.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("a materialized trace serialises to other bytes than its source")
	}
	if tr.ClassMix() != src.ClassMix() {
		t.Error("class mix differs")
	}
	tr.Decoded(true)
	if n := runs.Load(); n != 1 {
		t.Errorf("the generator ran %d times for five readers, want 1", n)
	}
	if tr.Resident() != src.Len() || tr.Len() != src.Len() {
		t.Errorf("materialized: %d events resident, Len %d, want %d", tr.Resident(), tr.Len(), src.Len())
	}
}

// TestDeferredMismatchIsAnError: events that are not the remembered ones —
// another count, another flag, other content — are never served. Every
// reader gets an error that names both digests, and a replay of the decode
// fails with it.
func TestDeferredMismatchIsAnError(t *testing.T) {
	src := sampleTrace(t)
	other := func(warm bool, mutate func([]Event) []Event) func() (*Trace, error) {
		return func() (*Trace, error) { return New(src.Name, warm, mutate(eventsOf(t, src))...), nil }
	}
	for name, gen := range map[string]func() (*Trace, error){
		"content": other(false, func(evs []Event) []Event { evs[3].MemAddr ^= 8; return evs }),
		"count":   other(false, func(evs []Event) []Event { return evs[:len(evs)-1] }),
		"flag":    other(true, func(evs []Event) []Event { return evs }),
	} {
		t.Run(name, func(t *testing.T) {
			got, _ := gen()
			tr := Deferred(src.Name, src.Identity(), gen)
			d := tr.Decoded(false)
			if d.Err == nil {
				t.Fatal("a trace that is not the remembered one was decoded")
			}
			if d.Len() != 0 {
				t.Errorf("the failed decode still carries %d events", d.Len())
			}
			for _, want := range []string{src.Name, src.Digest(), got.Digest()} {
				if !strings.Contains(d.Err.Error(), want) {
					t.Errorf("error %q does not mention %q", d.Err, want)
				}
			}
			if _, err := NewCursor(tr); err == nil || err.Error() != d.Err.Error() {
				t.Errorf("NewCursor error = %v, want the decode's", err)
			}
			if _, err := tr.WriteTo(&bytes.Buffer{}); err == nil {
				t.Error("WriteTo wrote a trace that failed to materialize")
			}
			if tr.Resident() != 0 {
				t.Errorf("%d events of the wrong trace are resident", tr.Resident())
			}
			// What the identity says stays answerable.
			if tr.Len() != src.Len() || tr.Digest() != src.Digest() {
				t.Error("the failed trace forgot its identity")
			}
		})
	}
}

// TestDeferredGeneratorErrorReachesReaders: a generator that fails fails
// the readers, once, with its own error inside.
func TestDeferredGeneratorErrorReachesReaders(t *testing.T) {
	src := sampleTrace(t)
	boom := errors.New("boom")
	runs := 0
	tr := Deferred(src.Name, src.Identity(), func() (*Trace, error) { runs++; return nil, boom })
	if d := tr.Decoded(false); !errors.Is(d.Err, boom) {
		t.Errorf("Decoded.Err = %v, want the generator's error", d.Err)
	}
	if d := tr.Decoded(true); !errors.Is(d.Err, boom) {
		t.Errorf("Decoded(true).Err = %v, want the generator's error", d.Err)
	}
	if _, err := NewCursor(tr); !errors.Is(err, boom) {
		t.Errorf("NewCursor error = %v, want the generator's", err)
	}
	if runs != 1 {
		t.Errorf("the failing generator ran %d times, want 1", runs)
	}
}

// TestDeferredMaterializesOnceUnderConcurrentReaders is the shape of a
// cold spot in a warm run: many simulations miss the cache at once on one
// deferred trace. The generator runs once and every reader sees the same
// events. Run under -race in CI.
func TestDeferredMaterializesOnceUnderConcurrentReaders(t *testing.T) {
	src := sampleTrace(t)
	var runs atomic.Int32
	tr := deferredCopy(t, src, &runs)
	first := eventsOf(t, src)[0]
	var wg sync.WaitGroup
	decodes := make([]*Decoded, 16)
	for i := range decodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 3:
				c, err := NewCursor(tr)
				if err != nil {
					t.Errorf("reader %d: %v", i, err)
				} else if ev, ok := c.Next(); !ok || ev != first {
					t.Errorf("reader %d: cursor's first event %+v (ok %v), want %+v", i, ev, ok, first)
				}
				_ = tr.Resident()
			default:
				decodes[i] = tr.Decoded(i%2 == 0)
				_ = tr.Digest()
			}
		}(i)
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("the generator ran %d times under concurrent readers, want 1", n)
	}
	for i, d := range decodes {
		if d == nil {
			continue
		}
		if d.Err != nil || d.Len() != src.Len() || d != tr.Decoded(i%2 == 0) {
			t.Errorf("reader %d: decode of %d events (error %v), want the shared decode of %d", i, d.Len(), d.Err, src.Len())
		}
	}
}

// TestDigestSumIsTheDigestsBytes: the raw sum a trace keeps beside its hex
// digest is that digest decoded, for an ordinary trace and for a deferred
// one (answered without generating); a deferred trace remembered with a
// digest that is not the lowercase hex of a sum has no sum to give.
func TestDigestSumIsTheDigestsBytes(t *testing.T) {
	src := sampleTrace(t)
	var runs atomic.Int32
	deferred := deferredCopy(t, src, &runs)
	for name, tr := range map[string]*Trace{"ordinary": src, "empty": New("empty", true), "deferred": deferred} {
		sum, ok := tr.DigestSum()
		want, err := hex.DecodeString(tr.Digest())
		if !ok || err != nil || !bytes.Equal(sum[:], want) {
			t.Errorf("%s: DigestSum %x (ok %v), want %s decoded", name, sum, ok, tr.Digest())
		}
	}
	if runs.Load() != 0 {
		t.Error("DigestSum generated a deferred trace")
	}
	good := strings.Repeat("0a", 32)
	for _, d := range []string{"", good[:62], good + "00", strings.ToUpper(good), good[:63] + "g"} {
		if sum, ok := Deferred("bad", Identity{Digest: d}, nil).DigestSum(); ok {
			t.Errorf("digest %q: DigestSum %x, ok; want none", d, sum)
		}
	}
}
