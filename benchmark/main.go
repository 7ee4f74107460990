// Command benchmark is the repository's end-to-end benchmark: four
// closed-loop workloads a user actually runs (a cold paper reproduction, a
// tuning race, a warm reproduction from a cache snapshot, a two-worker
// distributed sweep), reported as a handful of end-to-end metrics with
// regression bounds, plus a traced run that attributes the time to layers.
// See README.md for the tables and BENCHMARK.json (generated from
// catalog.go by -manifest) for the contract the driver checks.
//
//	go run -C benchmark . -workload paper_cold -seed 1            # both runs
//	go run -C benchmark . -workload all -seed 1 -trace 0          # end-to-end only
//	go run -C benchmark . -workload sweep_2w -seed 1 -trace 1     # per-layer only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"racesim/internal/telemetry"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0": untraced run, "1": traced run, "both"
	short    bool
	workDir  string
	out      string
	traceOut string
}

// metricValue is one reported metric; Samples is set for timings taken
// over several iterations.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// report is everything one workload run produced; -out writes it as JSON
// (the baseline/ files are such reports).
type report struct {
	Workload   string    `json:"workload"`
	Command    string    `json:"command"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Sizing     sizing    `json:"sizing"`
	Host       hostFacts `json:"host"`
	Iterations int       `json:"timed_iterations"`
	// AsMeasured holds the timings before the steal correction and the
	// steal itself (see stopwatch), for whoever doubts the correction.
	AsMeasured map[string]summary `json:"as_measured,omitempty"`
	// HostSlowdown is the median reference sample of the untraced run over
	// its time on the reference host (see hostSpeed); the host-time
	// end-to-end metrics are divided by it.
	HostSlowdown float64                `json:"host_slowdown,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	Checks       []checkResult          `json:"checks"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Artifact     string                 `json:"artifact_sha256"`
	SelfTime     map[string]float64     `json:"span_self_s,omitempty"`
	SpanFile     string                 `json:"span_file,omitempty"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]contractVal `json:"metrics"`
}

type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var printManifest bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed section measures")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics from the untraced run; 1: per-layer metrics from the traced run; both")
	flag.BoolVar(&o.short, "short", false, "tiny sizes (what the package test runs)")
	flag.StringVar(&o.workDir, "workdir", "out", "scratch directory for snapshots and span files")
	flag.StringVar(&o.out, "out", "", "also write the full report as JSON to this file (one workload)")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default <workdir>/<workload>.spans.jsonl)")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if printManifest {
		data, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	switch o.trace {
	case "0", "1", "both":
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", o.trace))
	}
	var defs []workloadDef
	for _, w := range workloadDefs {
		if o.workload == "all" || o.workload == w.Name {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	if o.out != "" && len(defs) != 1 {
		fatal(fmt.Errorf("-out takes one workload, not %d", len(defs)))
	}

	host := readHostFacts()
	fmt.Printf("host: %s\n", host)
	if host.Load1 > 0.5 {
		fmt.Printf("WARNING: 1-minute load average is %.2f (> 0.5) before starting: unless that is the previous run "+
			"(it counts for a minute), something else is running on this host and every host-time metric below is suspect\n", host.Load1)
	}
	failed := false
	for _, def := range defs {
		rep, err := runWorkload(def, o, host, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", def.Name, err))
		}
		if o.out != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		printResult(os.Stdout, rep)
		failed = failed || rep.Failed > 0
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult writes the contract line: every metric the run measured.
func printResult(w io.Writer, rep *report) {
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]contractVal{}}
	for _, set := range []map[string]metricValue{rep.EndToEnd, rep.PerLayer} {
		for name, v := range set {
			res.Metrics[name] = contractVal{v.Value, v.Unit}
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

// prepared is one complete set-up of a workload.
type prepared struct {
	inst   instance
	warmup *iterResult
	dir    string
}

// prepare builds a workload from nothing: scratch directory, inputs,
// snapshots, servers, and the untimed warm-up iteration. Its wall time is
// one setup_s sample.
func prepare(def workloadDef, env runEnv, root string) (*prepared, error) {
	dir, err := os.MkdirTemp(root, def.Name+"-")
	if err != nil {
		return nil, err
	}
	env.workDir = dir
	inst, err := def.build(&env)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	p := &prepared{inst: inst, dir: dir}
	p.warmup, err = timedIteration(inst, nil, nil)
	if err != nil {
		p.release()
		return nil, fmt.Errorf("warm-up iteration: %w", err)
	}
	return p, nil
}

func (p *prepared) release() error {
	err := p.inst.close()
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	return err
}

// timedIteration runs one closed-loop iteration: untimed reset and GC, then
// the iteration under the clocks. With a recorder the iteration runs
// decomposed under a root span carrying attrs.
func timedIteration(inst instance, rec *telemetry.Recorder, attrs map[string]string) (*iterResult, error) {
	if err := inst.reset(); err != nil {
		return nil, err
	}
	runtime.GC()
	var parent telemetry.SpanContext
	var root *telemetry.ActiveSpan
	if rec != nil {
		root = rec.StartSpan("iteration", telemetry.SpanContext{}, attrs)
		parent = root.Context()
	}
	start := time.Now()
	w := startWatch()
	it, err := inst.iterate(rec, parent)
	c := w.stop()
	if root != nil {
		root.End()
	}
	if err != nil {
		return nil, err
	}
	it.Start, it.clock = start, c
	return it, nil
}

// plannedIterations turns -seconds into an iteration count. A run does a
// fixed amount of work instead of watching the clock: traces and their
// decoded forms stay referenced for the life of the process
// (sim.Behaviors memoizes per decoded trace), so later iterations run on a
// larger heap and are slower than earlier ones, and peak memory grows with
// every iteration. With a fixed count both commits of a comparison are
// measured over the same iterations, and a faster program simply ends its
// run sooner.
func plannedIterations(def workloadDef, size sizing, seconds float64) int {
	n := int(math.Round(float64(def.Iterations) * seconds / runSeconds))
	if n < size.MinIters {
		n = size.MinIters
	}
	return n
}

func runWorkload(def workloadDef, o options, host hostFacts, w io.Writer) (*report, error) {
	name := def.Name
	size := fullSize
	if o.short {
		size = shortSize
	}
	env := runEnv{size: size, seed: o.seed, par: runtime.GOMAXPROCS(0)}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Workload: name, Command: "go run -C benchmark . " + strings.Join(os.Args[1:], " "), Seed: o.seed, Seconds: o.seconds,
		Sizing: size, Host: host,
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%g  trace=%s  (closed loop, one process, GOMAXPROCS=%d)\n",
		name, o.seed, o.seconds, o.trace, env.par)

	// Set-up, several times from nothing; the last one is kept. The host's
	// speed is sampled around every set-up and timed iteration (hostSpeed).
	speed := newHostSpeed(env.par)
	if o.trace != "1" {
		speed.sample()
	}
	var setupWalls, rawSetups []float64
	var prep *prepared
	setups := def.Setups
	if o.short {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if prep != nil {
			if err := prep.release(); err != nil {
				return nil, err
			}
		}
		w := startWatch()
		p, err := prepare(def, env, o.workDir)
		if err != nil {
			return nil, err
		}
		c := w.stop()
		setupWalls, rawSetups = append(setupWalls, c.Wall), append(rawSetups, c.Raw)
		prep = p
		if o.trace == "1" {
			break // the traced run reports no setup_s
		}
		speed.sample()
	}
	defer prep.release()
	iters := []*iterResult{prep.warmup}
	// run is one iteration past the warm-up, its operations counted.
	run := func(rec *telemetry.Recorder, attrs map[string]string) (*iterResult, error) {
		it, err := timedIteration(prep.inst, rec, attrs)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return nil, err
		}
		rep.Attempted += it.Ops
		rep.Failed += it.OpsFailed
		iters = append(iters, it)
		return it, nil
	}
	var walls []float64 // of the untraced timed iterations

	if o.trace != "1" {
		var cpus, rates, rawWalls, stolen, sys []float64
		planned := plannedIterations(def, size, o.seconds)
		loop := time.Now()
		for i := 0; i < planned; i++ {
			if i >= size.MinIters && time.Since(loop).Seconds() > 1.3*o.seconds {
				fmt.Fprintf(w, "stopping after %d of %d planned iterations: the timed section has run for %.0f s\n",
					i, planned, time.Since(loop).Seconds())
				break
			}
			it, err := run(nil, nil)
			if err != nil {
				fmt.Fprintf(w, "iteration %d FAILED: %v\n", i, err)
				continue
			}
			walls, cpus = append(walls, it.Wall), append(cpus, it.CPU)
			rates = append(rates, float64(it.lookups())/it.Wall)
			rawWalls, stolen, sys = append(rawWalls, it.Raw), append(stolen, it.Stolen), append(sys, it.Sys)
			speed.sample()
		}
		if len(walls) == 0 {
			return nil, fmt.Errorf("no timed iteration succeeded")
		}
		rep.Iterations = len(walls)
		rep.AsMeasured = map[string]summary{
			"wall_s": summarize(rawWalls), "stolen_vcpu_s": summarize(stolen), "cpu_sys_s": summarize(sys),
			"setup_s": summarize(rawSetups), "host_sample_s": summarize(speed.samples),
		}
		// Host times in reference-host seconds: divided by the run's slowdown.
		slow := speed.slowdown()
		rep.HostSlowdown = slow
		timing := func(xs []float64, scale float64) metricValue {
			s := summarize(xs)
			s.Median, s.Q1, s.Q3 = s.Median*scale, s.Q1*scale, s.Q3*scale
			return metricValue{Value: s.Median, Samples: &s}
		}
		rep.EndToEnd = map[string]metricValue{
			"wall_s":      timing(walls, 1/slow),
			"cpu_s":       timing(cpus, 1/slow),
			"sims_per_s":  timing(rates, slow),
			"setup_s":     timing(setupWalls, 1/slow),
			"peak_rss_mb": {Value: peakRSSMB()},
		}
		for _, d := range endToEnd {
			v := rep.EndToEnd[d.Name]
			v.Unit = d.Unit
			rep.EndToEnd[d.Name] = v
		}
	}

	var layer *metricSet
	if o.trace != "0" {
		if len(walls) == 0 {
			// The traced run alone: one untraced iteration past the warm-up
			// to hold the traced one against.
			it, err := run(nil, nil)
			if err != nil {
				return nil, fmt.Errorf("untraced iteration: %w", err)
			}
			walls = append(walls, it.Wall)
		}
		untraced := iters[len(iters)-1]
		rec := telemetry.NewRecorder()
		traced, err := run(rec, map[string]string{"workload": name, "seed": fmt.Sprint(o.seed)})
		if err != nil {
			return nil, fmt.Errorf("traced iteration: %w", err)
		}

		layer = newMetricSet()
		layer.set("bench.trace_overhead_pct", 100*(traced.Wall-median(walls))/median(walls))
		probeEnv := env
		probeEnv.workDir = prep.dir
		probeChecks, err := runProbes(name, &probeEnv, prep.inst, untraced, traced, rec, layer)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		rep.Checks = append(rep.Checks, probeChecks...)
		if err := reportMissing(layer); err != nil {
			return nil, err
		}
		spanChecks, self, err := writeSpans(rec, o, name)
		if err != nil {
			return nil, err
		}
		rep.Checks = append(rep.Checks, spanChecks...)
		rep.SelfTime = self
		rep.SpanFile = spanPath(o, name)
	}

	rep.Checks = append(prep.inst.checks(iters), rep.Checks...)
	for _, c := range rep.Checks {
		rep.Attempted++
		if !c.OK {
			rep.Failed++
		}
	}
	rep.Artifact = digest(iters[len(iters)-1].Artifact)
	if layer != nil {
		layer.set("fail_ratio", float64(rep.Failed)/float64(rep.Attempted))
		rep.PerLayer = map[string]metricValue{}
		for _, d := range perLayer {
			rep.PerLayer[d.Name] = metricValue{Value: layer.vals[d.Name], Unit: d.Unit}
		}
	}
	for _, set := range []map[string]metricValue{rep.EndToEnd, rep.PerLayer} {
		for name, v := range set {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return nil, fmt.Errorf("metric %s is %v", name, v.Value)
			}
		}
	}
	printReport(w, rep)
	return rep, nil
}

func spanPath(o options, name string) string {
	if o.traceOut != "" {
		return o.traceOut
	}
	return filepath.Join(o.workDir, name+".spans.jsonl")
}

// writeSpans checks the recorded span forest (parents resolve, self times
// are non-negative and add up to their root) and writes it as JSONL.
func writeSpans(rec *telemetry.Recorder, o options, name string) ([]checkResult, map[string]float64, error) {
	spans := rec.Spans()
	self := selfTimes(spans)
	byID := map[string]telemetry.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	parents := check("span_parents_resolve", true, "")
	nonneg := check("span_self_times_non_negative", true, "")
	rootOf := map[string]string{} // span id -> its root's id
	for _, sp := range spans {
		if _, ok := byID[sp.Parent]; sp.Parent != "" && !ok {
			parents = check("span_parents_resolve", false, "span %s (%s) names missing parent %s", sp.ID, sp.Name, sp.Parent)
		}
		if self[sp.ID] < 0 {
			nonneg = check("span_self_times_non_negative", false, "span %s (%s): %v", sp.ID, sp.Name, self[sp.ID])
		}
		r := sp
		for hops := 0; hops < len(spans); hops++ {
			p, ok := byID[r.Parent]
			if !ok {
				break
			}
			r = p
		}
		rootOf[sp.ID] = r.ID
	}
	sums := map[string]time.Duration{}
	byName := map[string]float64{}
	for _, sp := range spans {
		sums[rootOf[sp.ID]] += self[sp.ID]
		byName[sp.Name] += self[sp.ID].Seconds()
	}
	total := check("span_self_times_sum_to_root", true, "")
	for id, sum := range sums {
		rootDur := time.Duration(byID[id].DurationNS)
		if diff := (sum - rootDur).Abs(); float64(diff) > 0.02*float64(rootDur) {
			total = check("span_self_times_sum_to_root", false, "root %s: self times sum to %v, root lasted %v", byID[id].Name, sum, rootDur)
		}
	}
	path := spanPath(o, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	return []checkResult{parents, nonneg, total}, byName, f.Close()
}

// printReport writes the human-readable half: every metric by name with
// its unit, direction, bound and sample statistics, every self-check by
// name, the artifact digest.
func printReport(w io.Writer, rep *report) {
	if rep.EndToEnd != nil {
		fmt.Fprintf(w, "end-to-end (untraced run, %d timed iterations, median [q1..q3] n; host times in reference-host seconds, this host was %.2fx as slow):\n",
			rep.Iterations, rep.HostSlowdown)
		for _, d := range endToEnd {
			v := rep.EndToEnd[d.Name]
			line := fmt.Sprintf("  %-14s %12.4f %-6s %-6s bound %2.0f%%", d.Name, v.Value, d.Unit, d.Better, d.Bound*100)
			if s := v.Samples; s != nil {
				line += fmt.Sprintf("   [%.4f .. %.4f] n=%d", s.Q1, s.Q3, s.N)
			}
			fmt.Fprintln(w, line)
		}
	}
	if rep.PerLayer != nil {
		fmt.Fprintln(w, "per-layer (traced run, one iteration plus layer probes; 0 = layer not exercised by this workload):")
		for _, d := range perLayer {
			exact := ""
			if d.Exact {
				exact = " exact"
			}
			fmt.Fprintf(w, "  %-34s %16.6g %-8s %s%s\n", d.Name, rep.PerLayer[d.Name].Value, d.Unit, d.Better, exact)
		}
		fmt.Fprintf(w, "span self time by name (s), spans in %s:\n", rep.SpanFile)
		names := make([]string, 0, len(rep.SelfTime))
		for n := range rep.SelfTime {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return rep.SelfTime[names[i]] > rep.SelfTime[names[j]] })
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %10.4f\n", n, rep.SelfTime[n])
		}
	}
	fmt.Fprintln(w, "self-checks:")
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  %-42s %s\n", c.Name, status)
	}
	fmt.Fprintf(w, "artifact sha256 %s\n", rep.Artifact)
	fmt.Fprintf(w, "attempted %d, failed %d\n", rep.Attempted, rep.Failed)
}
