package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"racesim/internal/chaos"
	"racesim/internal/cluster"
	"racesim/internal/telemetry"
)

// cmdSweep is the distributed counterpart of `racesim experiments`: it
// expands a scenario selection and dispatches its units across a pool
// of `racesim serve` workers (remote URLs and/or locally spawned
// processes), assembling a byte-identical artifact on stdout.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("racesim sweep", flag.ExitOnError)
	var (
		workersFlag = fs.String("workers", "", "comma-separated worker base URLs (e.g. http://a:8080,http://b:8080)")
		spawn       = fs.Int("spawn", 0, "additionally fork N local `racesim serve` worker processes")
		scenarioPat = fs.String("scenario", "all", "comma-separated scenario names/globs ('all' = paper set)")
		retriesN    = fs.Int("retries", 3, "per-unit reassignment budget on worker failure")
		cache       = fs.String("cache", "", "federated snapshot: pre-seeds workers, collects+merges their deltas; re-run with the same file to resume")
		scale       = fs.Float64("scale", 0.01, "micro-benchmark scale factor")
		events      = fs.Int("events", 60_000, "workload trace length")
		budget1     = fs.Int("budget1", 2500, "irace budget, round 1")
		budget2     = fs.Int("budget2", 3500, "irace budget, round 2")
		seed        = fs.Int64("seed", 0, "seed")
		parallelism = fs.Int("parallelism", 0, "concurrent simulations per spawned worker (0 = GOMAXPROCS)")
		out         = fs.String("out", "", "also write the assembled artifact to this file")
		quiet       = fs.Bool("q", false, "suppress progress output")
		chaosSpec   = fs.String("chaos", "", "inject network faults between coordinator and workers (e.g. seed=7,drop=0.05,delay=0.1,fail=0.02); see docs/robustness.md")
		workerChaos = fs.String("worker-chaos", "", "forward a -chaos spec to every -spawn worker (engine-side faults: panic=N,stall=N,poison=N)")
		traceOut    = fs.String("trace-out", "", "write the sweep's flight recorder (one span per JSONL line) to this file; see docs/observability.md")
	)
	fs.Parse(args)

	var inj *chaos.Injector
	if *chaosSpec != "" {
		spec, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return err
		}
		inj = chaos.New(spec)
	}
	if *workerChaos != "" {
		if _, err := chaos.Parse(*workerChaos); err != nil {
			return fmt.Errorf("-worker-chaos: %w", err)
		}
		if *spawn == 0 {
			return fmt.Errorf("-worker-chaos only applies to -spawn workers (remote workers take `serve -chaos` themselves)")
		}
	}

	logf := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	var urls []string
	for _, u := range strings.Split(*workersFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	// The first SIGINT/SIGTERM ends the round, as it ends a batch command's
	// job (execute): the coordinator collects its live workers' deltas and
	// saves them to -cache on the way out, then the spawned workers are
	// stopped. It also removes the handler, so a second signal kills.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)
	if *spawn > 0 {
		spawned, stop, err := spawnWorkers(*spawn, *parallelism, *workerChaos, logf)
		if err != nil {
			return err
		}
		defer stop()
		urls = append(urls, spawned...)
	}
	if len(urls) == 0 {
		return fmt.Errorf("no workers: pass -workers URLs and/or -spawn N")
	}

	// Flight recorder: a root "sweep" span over the whole run; cluster.Run
	// parents one unit span per completed unit under it and folds in each
	// worker's job/engine spans collected from job results.
	var rec *telemetry.Recorder
	var root *telemetry.ActiveSpan
	if *traceOut != "" {
		rec = telemetry.NewRecorder()
		root = rec.StartSpan("sweep", telemetry.SpanContext{}, map[string]string{
			"scenario": *scenarioPat,
			"workers":  fmt.Sprint(len(urls)),
		})
	}

	output, rep, err := cluster.Run(ctx, cluster.Options{
		Workers:   urls,
		Retries:   *retriesN,
		CachePath: *cache,
		Transport: inj.Transport(nil),
		Scenario:  *scenarioPat,
		Scale:     *scale,
		Events:    *events,
		Budget1:   *budget1,
		Budget2:   *budget2,
		Seed:      *seed,
		Trace:     traceContext(root),
		Recorder:  rec,
		Log:       logf,
	})
	if inj != nil {
		logf("sweep: chaos injected: %s", inj.Counts())
	}
	if root != nil {
		// The root span closes even on a failed sweep: a flight recorder
		// that stops at the failure is exactly what you want to read.
		root.SetAttr("units", fmt.Sprint(rep.Units))
		root.End()
		if werr := writeTrace(*traceOut, rec); werr != nil {
			if err == nil {
				err = werr
			} else {
				logf("sweep: %v", werr)
			}
		} else {
			logf("sweep: wrote flight recorder to %s", *traceOut)
		}
	}
	if err != nil {
		return err
	}
	if n := len(rep.UnitDurations); n > 0 {
		p := telemetry.Percentiles(rep.UnitDurations, 0.50, 0.90, 0.99)
		logf("sweep: unit latency over %d units: p50 %v, p90 %v, p99 %v",
			n, p[0].Round(time.Millisecond), p[1].Round(time.Millisecond), p[2].Round(time.Millisecond))
	}
	fmt.Print(output)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(output), 0o644); err != nil {
			return err
		}
		logf("wrote %s", *out)
	}
	for url, n := range rep.Completed {
		logf("sweep: worker %s rendered %d units", url, n)
	}
	if rep.Reassigned > 0 {
		logf("sweep: %d unit dispatches reassigned", rep.Reassigned)
	}
	if len(rep.Dead) > 0 {
		logf("sweep: dead workers: %s", strings.Join(rep.Dead, ", "))
	}
	return nil
}

// traceContext extracts the span context to parent the sweep's unit
// spans under; a nil root (tracing off) yields the zero context, which
// cluster.Run treats as "don't trace".
func traceContext(root *telemetry.ActiveSpan) telemetry.SpanContext {
	if root == nil {
		return telemetry.SpanContext{}
	}
	return root.Context()
}

// writeTrace persists the flight recorder atomically (temp + rename),
// so a crash mid-write never leaves a torn JSONL behind.
func writeTrace(path string, rec *telemetry.Recorder) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// spawnWorkers forks n local `racesim serve` processes on ephemeral
// loopback ports — single-machine parallelism beyond one simcache lock
// domain (each process owns its own shared cache; the coordinator's
// federation ties them together). The bound address of each worker is
// discovered through serve's -announce file. A non-empty chaosSpec is
// forwarded to each worker's `serve -chaos`, arming engine-side faults
// (job panics, stalls, poisoned cache deltas) inside the workers.
func spawnWorkers(n, parallelism int, chaosSpec string, logf func(string, ...any)) (urls []string, stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("spawn: locate racesim binary: %w", err)
	}
	dir, err := os.MkdirTemp("", "racesim-sweep-")
	if err != nil {
		return nil, nil, err
	}
	var procs []*exec.Cmd
	stop = func() {
		for _, p := range procs {
			p.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range procs {
			done := make(chan struct{})
			go func(p *exec.Cmd) { p.Wait(); close(done) }(p)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				p.Process.Kill()
				p.Wait()
			}
		}
		os.RemoveAll(dir)
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()
	for i := 0; i < n; i++ {
		announce := filepath.Join(dir, fmt.Sprintf("worker-%d.addr", i))
		wargs := []string{"serve",
			"-addr", "127.0.0.1:0",
			"-announce", announce,
			"-parallelism", fmt.Sprint(parallelism)}
		if chaosSpec != "" {
			wargs = append(wargs, "-chaos", chaosSpec)
		}
		cmd := exec.Command(exe, wargs...)
		cmd.Stderr = os.Stderr
		if err = cmd.Start(); err != nil {
			return nil, nil, fmt.Errorf("spawn worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
		addr, werr := waitAnnounce(announce, 10*time.Second)
		if werr != nil {
			err = fmt.Errorf("spawn worker %d: %w", i, werr)
			return nil, nil, err
		}
		urls = append(urls, "http://"+addr)
		logf("sweep: spawned local worker %d at http://%s (pid %d)", i, addr, cmd.Process.Pid)
	}
	return urls, stop, nil
}

// waitAnnounce polls an -announce file until the worker has written its
// bound address (the write is atomic: temp file + rename).
func waitAnnounce(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data)), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("worker did not announce its address within %v", timeout)
}
