// Package telemetry is the dependency-free observability fabric under
// every racesim layer: a metrics registry (counters, gauges and
// fixed-bucket histograms with a deterministic Prometheus text-format
// snapshot) and lightweight spans (trace-id/span-id with start/duration
// and attributes) propagated coordinator → worker → engine over the
// X-Racesim-Trace header and assembled into a flight-recorder JSONL.
//
// Design constraints, in order:
//
//   - zero dependencies: the package imports only the standard library,
//     so the simulation core and every fabric layer can instrument
//     without pulling a client library into the module;
//   - race-safe: instruments are lock-free (atomics) on the hot path and
//     the registry mutex is held only for instrument creation and
//     snapshotting, so instrumented code is safe (and cheap) under
//     `go test -race`;
//   - deterministic snapshots: two registries holding the same values
//     render byte-identical /metrics bodies — families sort by name,
//     samples by label signature — so snapshots diff cleanly in tests
//     and scrapes never reorder between polls;
//   - observation must not perturb: collectors (CounterFunc/GaugeFunc)
//     read existing Stats() snapshots at scrape time instead of
//     threading new counters through hot loops, so instrumenting a layer
//     cannot change its output or its timing contract.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value pair attached to an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Instrument kinds, in Prometheus exposition terms.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing count, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution: observation counts per
// upper bound (cumulative in the rendered form, per Prometheus rules)
// plus a running sum. Buckets are immutable after creation.
type Histogram struct {
	bounds  []float64       // sorted upper bounds, +Inf excluded
	buckets []atomic.Uint64 // one per bound (non-cumulative internally)
	inf     atomic.Uint64   // observations above every bound
	sumBits atomic.Uint64   // float64 bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v: sort.SearchFloat64s gives the first bound >= v
	// only for exact matches; use "v <= bound" semantics per Prometheus
	// (le = less-or-equal).
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	if i < len(h.bounds) {
		h.buckets[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets is a general-purpose latency bucket ladder in seconds:
// 1ms to 5min, roughly geometric. Suitable for job wait/run times.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// instrument is one registered sample: an instrument kind, its labels,
// and a read function (or the concrete instrument for hot-path types).
type instrument struct {
	name   string
	kind   string
	labels []Label
	sig    string // canonical label signature, the sort key

	counter   *Counter
	histogram *Histogram
	readFunc  func() float64 // CounterFunc / GaugeFunc collector
}

// family groups every sample sharing a metric name.
type family struct {
	name string
	help string
	kind string
	// samples keyed by label signature; creation-ordered irrelevant —
	// snapshots sort by signature.
	samples map[string]*instrument
}

// Registry holds instruments and renders deterministic snapshots. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelSig renders labels canonically (sorted by key) for use as a map
// key and deterministic sort key. Duplicate keys are a programming
// error and panic.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			if ls[i-1].Key == l.Key {
				panic(fmt.Sprintf("telemetry: duplicate label key %q", l.Key))
			}
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(escapeLabel(l.Value))
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register get-or-creates the family and sample slot for (name, labels)
// and calls init on it, all under the registry lock: two goroutines
// registering one sample for the first time must agree on one instrument,
// so the instrument is created (and read back) inside init, never after
// register returns. A kind conflict panics — a programming error, not
// runtime input.
func (r *Registry) register(name, help, kind string, labels []Label, init func(*instrument)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, samples: map[string]*instrument{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	sig := labelSig(labels)
	inst, ok := f.samples[sig]
	if !ok {
		inst = &instrument{name: name, kind: kind, labels: append([]Label(nil), labels...), sig: sig}
		f.samples[sig] = inst
	}
	init(inst)
}

// Counter get-or-creates a counter sample. Calling again with the same
// name and labels returns the same counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	var c *Counter
	r.register(name, help, kindCounter, labels, func(inst *instrument) {
		if inst.counter == nil && inst.readFunc == nil {
			inst.counter = &Counter{}
		}
		c = inst.counter
	})
	return c
}

// Histogram get-or-creates a fixed-bucket histogram sample. bounds are
// upper bounds in ascending order (+Inf is implicit); they must match
// on repeated registration of the same sample.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	var h *Histogram
	r.register(name, help, kindHistogram, labels, func(inst *instrument) {
		if inst.histogram == nil {
			if len(bounds) == 0 {
				panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
			}
			if !sort.Float64sAreSorted(bounds) {
				panic(fmt.Sprintf("telemetry: histogram %q bounds are not ascending", name))
			}
			inst.histogram = &Histogram{bounds: append([]float64(nil), bounds...)}
			inst.histogram.buckets = make([]atomic.Uint64, len(bounds))
		}
		h = inst.histogram
	})
	return h
}

// CounterFunc registers a collector rendered as a counter: fn is read
// at snapshot time. Use it to export an existing monotonic statistic
// (cache hits, fired faults) without double-counting state.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, labels, func(inst *instrument) { inst.readFunc = fn })
}

// GaugeFunc registers a collector rendered as a gauge (queue depth,
// occupancy) read at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func(inst *instrument) { inst.readFunc = fn })
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trippable float, "+Inf"/"-Inf"/"NaN" spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders a full label set (base sample labels plus any
// extras, e.g. the histogram "le") in canonical sorted order.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). The output is deterministic: families sort by
// name, samples by canonical label signature — equal registry contents
// produce equal bytes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the sample set under the lock (a concurrent registration
	// writes the family's map and the instrument's fields); render, which
	// calls collectors, outside it.
	type famSnap struct {
		*family
		insts []instrument
	}
	r.mu.Lock()
	fams := make([]famSnap, 0, len(r.families))
	for _, f := range r.families {
		fs := famSnap{family: f, insts: make([]instrument, 0, len(f.samples))}
		for _, inst := range f.samples {
			fs.insts = append(fs.insts, *inst)
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		sort.Slice(f.insts, func(i, j int) bool { return f.insts[i].sig < f.insts[j].sig })
		for i := range f.insts {
			inst := &f.insts[i]
			switch {
			case inst.readFunc != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(inst.labels), formatValue(inst.readFunc()))
			case inst.counter != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(inst.labels), formatValue(float64(inst.counter.Value())))
			case inst.histogram != nil:
				h := inst.histogram
				// Cumulative bucket counts; read each bucket once so the
				// rendered buckets are internally consistent even while
				// observations continue; count is the bucket total.
				var cum uint64
				for i, bound := range h.bounds {
					cum += h.buckets[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						renderLabels(inst.labels, L("le", formatValue(bound))), cum)
				}
				cum += h.inf.Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					renderLabels(inst.labels, L("le", "+Inf")), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, renderLabels(inst.labels), formatValue(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, renderLabels(inst.labels), cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
