package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"racesim/internal/telemetry/telemetrytest"
)

// TestSnapshotDeterministicBytes: two registries populated in different
// orders with the same values must render byte-identical snapshots.
func TestSnapshotDeterministicBytes(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("zz_total", "last family", L("kind", "b")).Inc() },
			func() { r.Counter("zz_total", "last family", L("kind", "a")).Inc() },
			func() { r.GaugeFunc("aa_depth", "first family", func() float64 { return 4.5 }) },
			func() {
				h := r.Histogram("mm_seconds", "middle family", []float64{0.1, 1, 10})
				h.Observe(0.05)
				h.Observe(5)
			},
		}
		for _, i := range order {
			ops[i]()
		}
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if a != b {
		t.Fatalf("snapshot bytes depend on registration order:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	// Families must appear sorted by name.
	ia := strings.Index(a, "aa_depth")
	im := strings.Index(a, "mm_seconds")
	iz := strings.Index(a, "zz_total")
	if !(ia < im && im < iz) {
		t.Fatalf("families not sorted by name:\n%s", a)
	}
	// Samples within a family sorted by label signature.
	if strings.Index(a, `zz_total{kind="a"}`) > strings.Index(a, `zz_total{kind="b"}`) {
		t.Fatalf("samples not sorted by label signature:\n%s", a)
	}
}

func TestSnapshotIsValidPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("racesim_jobs_total", "jobs executed", L("kind", "run"), L("status", "done")).Inc()
	r.GaugeFunc("racesim_job_queue_depth", "queued jobs", func() float64 { return 3 })
	r.GaugeFunc("racesim_build_info", "build metadata",
		func() float64 { return 1 },
		L("version", "v0.10.0"), L("go", "go1.24.0"), L("commit", "deadbeef"))
	h := r.Histogram("racesim_job_run_seconds", "job run time", DurationBuckets, L("kind", "run"))
	for _, v := range []float64{0.0005, 0.001, 0.3, 2, 400} {
		h.Observe(v)
	}
	r.CounterFunc("racesim_collected_total", "collector-backed counter",
		func() float64 { return 5 }, L("kind", "sample"))
	// A label value exercising every escape.
	r.GaugeFunc("racesim_escape", "escapes", func() float64 { return 1 }, L("v", "a\\b\"c\nd"))

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := telemetrytest.ValidatePrometheus(b.String()); err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
}

// TestHistogramBucketBoundaries: observations landing exactly on a
// bucket's upper bound count into that bucket (le = less-or-equal),
// values past the last bound land in +Inf only, and the rendered
// buckets are cumulative.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{1, 1, 2, 3, 4, 4.000001, 100} {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`h_bucket{le="1"} 2`,    // the two 1.0 observations: exactly on the bound
		`h_bucket{le="2"} 3`,    // + the 2.0 observation
		`h_bucket{le="4"} 5`,    // + 3.0 and 4.0
		`h_bucket{le="+Inf"} 7`, // + 4.000001 and 100
		`h_count 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if got, want := h.Sum(), 1+1+2+3+4+4.000001+100.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum() = %v, want %v", got, want)
	}
}

// TestConcurrentInstruments hammers every instrument type from many
// goroutines while snapshotting — the -race contract. Counts are exact.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	var g atomic.Int64
	r.GaugeFunc("g", "", func() float64 { return float64(g.Load()) })
	h := r.Histogram("h_seconds", "", []float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) * 0.9)
				if i%100 == 0 {
					var b bytes.Buffer
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("g %d\n", workers*per),
		fmt.Sprintf("h_seconds_count %d\n", workers*per),
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

// TestSameInstrumentReturned: get-or-create semantics — the same
// name+labels yields the same instrument; different labels a sibling.
func TestSameInstrumentReturned(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("k", "1"))
	b := r.Counter("x_total", "", L("k", "1"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "", L("k", "2"))
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}

// TestConcurrentFirstRegistration races many goroutines on the first
// registration of one counter and one histogram sample while another
// scrapes: every goroutine must get the same instrument (an increment
// through a losing duplicate would be lost) and -race must see no
// unsynchronized access to the sample slot.
func TestConcurrentFirstRegistration(t *testing.T) {
	const workers = 16
	for round := 0; round < 50; round++ {
		r := NewRegistry()
		counters := make([]*Counter, workers)
		hists := make([]*Histogram, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				counters[w] = r.Counter("fresh_total", "", L("k", "v"))
				counters[w].Inc()
				hists[w] = r.Histogram("fresh_seconds", "", []float64{1}, L("k", "v"))
				hists[w].Observe(1)
				if w == 0 {
					if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			if counters[w] != counters[0] || hists[w] != hists[0] {
				t.Fatalf("round %d: goroutine %d got a different instrument for the same sample", round, w)
			}
		}
		if got := counters[0].Value(); got != workers {
			t.Fatalf("round %d: counter = %d, want %d", round, got, workers)
		}
		if got := hists[0].Sum(); got != workers {
			t.Fatalf("round %d: histogram sum = %v, want %d", round, got, workers)
		}
	}
}
