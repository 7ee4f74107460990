package telemetry

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewID(), Span: NewID()}
	got := ParseHeader(sc.Header())
	if got != sc {
		t.Fatalf("round trip: %+v != %+v", got, sc)
	}
	for _, bad := range []string{"", "x", "abc-def", "not a header",
		"0123456789abcdef", "0123456789abcdef-short",
		"0123456789ABCDEF-0123456789abcdef", // upper-case hex is not ours
	} {
		if sc := ParseHeader(bad); sc.Valid() {
			t.Errorf("ParseHeader(%q) = %+v, want invalid", bad, sc)
		}
	}
	if (SpanContext{}).Header() != "" {
		t.Error("zero context should render an empty header")
	}
}

// FuzzParseHeader: an X-Racesim-Trace value comes off the network, so
// ParseHeader must never panic, and it either rejects the value (the zero
// context) or returns a valid context that renders back to the value, less
// surrounding space. Seeds live in testdata/fuzz/FuzzParseHeader.
func FuzzParseHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		sc := ParseHeader(v)
		if sc == (SpanContext{}) {
			return
		}
		if !sc.Valid() || sc.Header() != strings.TrimSpace(v) {
			t.Fatalf("ParseHeader(%q) = %+v, which renders %q", v, sc, sc.Header())
		}
	})
}

func TestSpanTreeAndJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder()
	root := rec.StartSpan("sweep", SpanContext{}, map[string]string{"scenario": "all"})
	child := rec.StartSpan("unit", root.Context(), nil)
	child.SetAttr("unit", "fig4")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Insertion order: child ended first.
	if spans[0].Name != "unit" || spans[1].Name != "sweep" {
		t.Fatalf("unexpected span order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Trace != spans[1].Trace {
		t.Error("child span left the parent's trace")
	}
	if spans[0].Parent != spans[1].ID {
		t.Error("child span not parented to root")
	}
	if spans[0].DurationNS <= 0 {
		t.Error("child span has no duration")
	}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost spans: %d", len(back))
	}
	// JSONL is start-time ordered: the root started first.
	if back[0].Name != "sweep" || back[1].Name != "unit" {
		t.Fatalf("JSONL not start-ordered: %q, %q", back[0].Name, back[1].Name)
	}
	if back[1].Attrs["unit"] != "fig4" {
		t.Errorf("attrs lost in round trip: %+v", back[1].Attrs)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	if rec.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	sp := rec.StartSpan("x", SpanContext{}, nil)
	if !sp.Context().Valid() {
		t.Fatal("span context unusable on nil recorder")
	}
	sp.End() // must not panic
	rec.Add(Span{})
	if rec.Spans() != nil {
		t.Fatal("nil recorder recorded spans")
	}
}

func TestRecorderConcurrentAdd(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := rec.StartSpan("s", SpanContext{}, nil)
				sp.End()
				_ = rec.Spans()
			}
		}()
	}
	wg.Wait()
	if got := len(rec.Spans()); got != 8*200 {
		t.Fatalf("got %d spans, want %d", got, 8*200)
	}
}

func TestContextPropagation(t *testing.T) {
	sc := SpanContext{Trace: NewID(), Span: NewID()}
	ctx := ContextWithSpan(context.Background(), sc)
	if got := SpanFromContext(ctx); got != sc {
		t.Fatalf("context round trip: %+v", got)
	}
	if got := SpanFromContext(context.Background()); got.Valid() {
		t.Fatalf("empty context yielded %+v", got)
	}
	// Invalid contexts are not stored.
	ctx = ContextWithSpan(context.Background(), SpanContext{Trace: "x"})
	if got := SpanFromContext(ctx); got.Valid() {
		t.Fatalf("invalid context stored: %+v", got)
	}
}

func TestPercentiles(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	ps := Percentiles(ds, 0.5, 0.9, 0.99, 1)
	want := []time.Duration{50 * time.Millisecond, 90 * time.Millisecond, 99 * time.Millisecond, 100 * time.Millisecond}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("p[%d] = %v, want %v", i, ps[i], want[i])
		}
	}
	if got := Percentiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty input p50 = %v, want 0", got[0])
	}
	if got := Percentiles([]time.Duration{7}, 0, 0.5, 1); got[0] != 7 || got[2] != 7 {
		t.Errorf("single sample percentiles = %v", got)
	}
}
