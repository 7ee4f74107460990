package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"racesim/internal/telemetry"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the catalogue it is generated from
// and to the limits of the driver's schema.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("../BENCHMARK.json is stale: regenerate it with `go run -C benchmark . -manifest > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes (max 64 KiB)", len(want))
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRe)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name("end-to-end", m.Name)
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s (s, lower)")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		name("per-layer", m.Name)
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

func shortRun(t *testing.T, def workloadDef, seed int64, trace string) *report {
	name := def.Name
	t.Helper()
	o := options{workload: name, seed: seed, seconds: 0, trace: trace, short: true, workDir: t.TempDir()}
	rep, err := runWorkload(def, o, readHostFacts(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("%s: self-check %s failed: %s", name, c.Name, c.Detail)
		}
	}
	if rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d", name, rep.Attempted, rep.Failed)
	}
	return rep
}

// TestShortPass runs every workload at test size, untraced and traced, and
// checks the contract: every metric of the manifest exactly once with a
// finite value and its unit, a well-formed span file, and exact repetition
// of counts and artifacts for a fixed seed.
func TestShortPass(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			first := shortRun(t, w, 7, "both")
			checkMetrics(t, "end-to-end", first.EndToEnd, endToEnd, true)
			checkMetrics(t, "per-layer", first.PerLayer, perLayer, false)
			checkSpanFile(t, first.SpanFile)

			var out bytes.Buffer
			printResult(&out, first)
			var res result
			if err := json.Unmarshal(out.Bytes(), &res); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if !res.Correct || len(res.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("result line: correct=%v with %d metrics", res.Correct, len(res.Metrics))
			}

			second := shortRun(t, w, 7, "1")
			if first.Artifact != second.Artifact {
				t.Errorf("same seed, different artifacts: %s vs %s", first.Artifact, second.Artifact)
			}
			for _, d := range perLayer {
				if a, b := first.PerLayer[d.Name].Value, second.PerLayer[d.Name].Value; d.Exact && a != b {
					t.Errorf("count metric %s does not repeat for a fixed seed: %v vs %v", d.Name, a, b)
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, kind string, got map[string]metricValue, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, manifest names %d", kind, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not emitted", kind, d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s metric %s = %v", kind, d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("%s metric %s: unit %q, manifest says %q", kind, d.Name, v.Unit, d.Unit)
		case nonZero && v.Value <= 0:
			t.Errorf("%s metric %s = %v, must never be zero", kind, d.Name, v.Value)
		}
	}
}

// checkSpanFile re-derives the span invariants from the file alone.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := map[string]telemetry.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	self := selfTimes(spans)
	sums := map[string]time.Duration{} // trace id -> summed self time
	roots := map[string]telemetry.Span{}
	for _, sp := range spans {
		if sp.Parent == "" {
			roots[sp.Trace] = sp
		} else if p, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %s (%s): parent %s not in the file", sp.ID, sp.Name, sp.Parent)
		} else if p.Trace != sp.Trace {
			t.Errorf("span %s (%s): trace id differs from its parent's", sp.ID, sp.Name)
		}
		if self[sp.ID] < 0 {
			t.Errorf("span %s (%s): self time %v", sp.ID, sp.Name, self[sp.ID])
		}
		sums[sp.Trace] += self[sp.ID]
	}
	for trace, root := range roots {
		dur := time.Duration(root.DurationNS)
		if diff := (sums[trace] - dur).Abs(); float64(diff) > 0.02*float64(dur) {
			t.Errorf("trace %s (%s): self times sum to %v, root span lasted %v", trace, root.Name, sums[trace], dur)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(id, parent string, startMS, durMS int) telemetry.Span {
		return telemetry.Span{Trace: "t", ID: id, Parent: parent,
			Start: t0.Add(time.Duration(startMS) * time.Millisecond), DurationNS: int64(durMS) * 1e6}
	}
	// Two overlapping children and one that outlives the parent.
	self := selfTimes([]telemetry.Span{
		at("root", "", 0, 100), at("a", "root", 10, 30), at("b", "root", 20, 30), at("c", "root", 90, 50),
	})
	if got := self["root"]; got != 50*time.Millisecond {
		t.Errorf("root self time %v, want 50ms", got)
	}
	if got := self["c"]; got != 50*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", got)
	}
}

// TestRefSimPinned holds the host-speed reference to the work it did when
// the baseline was recorded: every host time is in its units.
func TestRefSimPinned(t *testing.T) {
	m := &refSim{x: 0x9E3779B97F4A7C15}
	if got, want := m.run(100_000), uint64(2435919); got != want {
		t.Errorf("refSim.run(100000) = %d simulated cycles, recorded %d: the reference work changed, so every recorded host time is void", got, want)
	}
}
