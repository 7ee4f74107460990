// Command racesim is the single entry point to the reproduction: every
// workflow that used to be its own binary is a subcommand over the shared
// execution engine (internal/engine).
//
//	racesim run -preset public-a53 -ubench MD
//	racesim run -config tuned.json -workload mcf,xz -parallelism 4
//	racesim experiments -scenario all -cache simcache.snap
//	racesim validate -core a53 -out tuned.json
//	racesim ubench -list
//	racesim serve -addr :8080 -cache simcache.snap
//	racesim sweep -workers http://a:8080,http://b:8080 -scenario 'fig*'
//	racesim sweep -spawn 4 -scenario all -cache federated.snap
//	racesim cache merge -o all.snap a.snap b.snap
//
// For compatibility with the historical single-purpose binary, invoking
// racesim with flags and no subcommand ("racesim -preset ... -ubench MD")
// behaves as `racesim run`. Every batch subcommand accepts the shared
// lifecycle flags -parallelism, -cache, -cpuprofile and -memprofile
// (serve has its own lifecycle: -workers, -queue-depth, -drain-timeout,
// -job-timeout) and stops at the first SIGINT/SIGTERM with exit status 130,
// a run with -cache having saved what it simulated; so does sweep. Artifacts
// go to stdout, progress and cache statistics to stderr. See docs/cli.md
// for the full reference, including the serve HTTP API and job JSON schema.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"racesim/internal/engine"
	"racesim/internal/expt"
	"racesim/internal/ubench"
	"racesim/internal/version"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: racesim <subcommand> [flags]

subcommands:
  run          simulate micro-benchmarks, workloads or a trace on one configuration
  experiments  regenerate the paper's tables/figures and run scenario sweeps
  validate     run the full hardware-validation pipeline for one core
  ubench       inspect the Table I micro-benchmark suite
  serve        long-lived HTTP job server over a shared warm simulation cache
  sweep        distribute a scenario sweep across serve workers (see docs/distributed.md)
  cache        inspect or merge simulation-cache snapshots
  gate         check committed BENCH_*.json results against regression thresholds
  version      print the build's version, go toolchain and commit

Run "racesim <subcommand> -h" for the subcommand's flags.
Bare flags ("racesim -preset ...") are shorthand for "racesim run".
`)
}

func main() {
	args := os.Args[1:]
	sub := "run"
	switch {
	case len(args) == 0:
		usage()
		os.Exit(2)
	case strings.HasPrefix(args[0], "-"):
		// Historical spelling: the old standalone racesim binary took run
		// flags directly.
		if args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
			usage()
			os.Exit(0)
		}
	default:
		sub = args[0]
		args = args[1:]
	}

	var err error
	switch sub {
	case "run":
		err = cmdRun(args)
	case "experiments":
		err = cmdExperiments(args)
	case "validate":
		err = cmdValidate(args)
	case "ubench":
		err = cmdUbench(args)
	case "serve":
		err = cmdServe(args)
	case "sweep":
		err = cmdSweep(args)
	case "cache":
		err = cmdCache(args)
	case "gate":
		err = cmdGate(args)
	case "version":
		fmt.Println(version.Get().String())
		return
	case "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "racesim: unknown subcommand %q\n\n", sub)
		usage()
		os.Exit(2)
	}
	if err != nil {
		// Keep the historical per-binary error prefixes ("experiments:",
		// "validate:", ...), which scripts grep for.
		prefix := sub
		if sub == "run" || sub == "serve" {
			prefix = "racesim"
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // interrupted: a signal context (execute's, sweep's) is the only one cancelled
		}
		os.Exit(1)
	}
}

// lifecycleFlags registers the engine options every subcommand shares.
func lifecycleFlags(fs *flag.FlagSet) (parallelism *int, cache, cpuprofile, memprofile *string) {
	parallelism = fs.Int("parallelism", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cache = fs.String("cache", "", "binary snapshot file persisting the simulation cache across runs")
	cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	return
}

// execute runs one job on the engine with streamed output; capture also
// keeps the streams in the Result (engine.Options.Capture). The first
// SIGINT/SIGTERM cancels the job (it stops within one simulation batch)
// and removes the handler, so a second signal kills.
func execute(job engine.Job, capture bool, parallelism int, cache, cpuprofile, memprofile string) (*engine.Result, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	return engine.ExecuteContext(ctx, job, engine.Options{
		Parallelism: parallelism,
		CachePath:   cache,
		CPUProfile:  cpuprofile,
		MemProfile:  memprofile,
		Stdout:      os.Stdout,
		Stderr:      os.Stderr,
		Capture:     capture,
	})
}

// readInput reads the file a flag names into a job's inline JSON field:
// nothing when the flag is unset, an error when the file is empty.
func readInput(path string) (json.RawMessage, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err == nil && len(data) == 0 {
		err = fmt.Errorf("%s: empty file", path)
	}
	return data, err
}

// writeOutput writes one of a job's outputs to the file a flag names and
// says so on stderr as "wrote <what><path>".
func writeOutput(path, what string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s%s\n", what, path)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("racesim run", flag.ExitOnError)
	var (
		preset     = fs.String("preset", "public-a53", "built-in config: public-a53 or public-a72")
		cfgPath    = fs.String("config", "", "JSON config file (overrides -preset)")
		benchNames = fs.String("ubench", "", "micro-benchmark name(s), comma-separated, or \"all\" (Table I)")
		wlNames    = fs.String("workload", "", "SPEC-like workload name(s), comma-separated, or \"all\" (Table II)")
		trPath     = fs.String("trace", "", "RIFT trace file to replay")
		events     = fs.Int("events", expt.DefaultWorkloadEvents, "workload trace length")
		scale      = fs.Float64("scale", ubench.DefaultScale, "micro-benchmark scale factor")
		seed       = fs.Int64("seed", 0, "workload generator seed")
	)
	parallelism, cache, cpuprofile, memprofile := lifecycleFlags(fs)
	fs.Parse(args)
	cfgJSON, err := readInput(*cfgPath)
	if err != nil {
		return err
	}
	_, err = execute(engine.Job{
		Kind: engine.KindRun,
		Run: &engine.RunJob{
			Preset:     *preset,
			ConfigJSON: cfgJSON,
			Ubench:     *benchNames,
			Workload:   *wlNames,
			TracePath:  *trPath,
			Events:     *events,
			Scale:      *scale,
			Seed:       *seed,
		},
	}, false, *parallelism, *cache, *cpuprofile, *memprofile)
	return err
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("racesim experiments", flag.ExitOnError)
	var (
		scenarioPat  = fs.String("scenario", "", "comma-separated scenario names/globs ('all' = paper set, the default); see -list-scenarios")
		listScen     = fs.Bool("list-scenarios", false, "list registered scenarios and exit")
		manifest     = fs.String("manifest", "", "overlay scenarios from this JSON manifest on the registry")
		saveManifest = fs.String("save-manifest", "", "write the effective scenario registry to this manifest and exit")
		scale        = fs.Float64("scale", ubench.DefaultScale, "micro-benchmark scale factor")
		events       = fs.Int("events", expt.DefaultWorkloadEvents, "workload trace length")
		budget1      = fs.Int("budget1", expt.DefaultBudgetRound1, "irace budget, round 1")
		budget2      = fs.Int("budget2", expt.DefaultBudgetRound2, "irace budget, round 2")
		seed         = fs.Int64("seed", 0, "seed")
		out          = fs.String("out", "", "also write results to this file")
		quiet        = fs.Bool("q", false, "suppress progress output")
	)
	parallelism, cache, cpuprofile, memprofile := lifecycleFlags(fs)
	fs.Parse(args)
	res, err := execute(engine.Job{
		Kind: engine.KindExperiments,
		Experiments: &engine.ExperimentsJob{
			Scenario:      *scenarioPat,
			ListScenarios: *listScen,
			Manifest:      *manifest,
			SaveManifest:  *saveManifest,
			Scale:         *scale,
			Events:        *events,
			Budget1:       *budget1,
			Budget2:       *budget2,
			Seed:          *seed,
			Quiet:         *quiet,
		},
	}, *out != "", *parallelism, *cache, *cpuprofile, *memprofile)
	if err != nil || *out == "" {
		return err
	}
	return writeOutput(*out, "", []byte(res.Artifact))
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("racesim validate", flag.ExitOnError)
	var (
		coreK     = fs.String("core", "a53", "core to validate: a53 or a72")
		budget1   = fs.Int("budget1", expt.DefaultBudgetRound1, "irace budget for tuning round 1")
		budget2   = fs.Int("budget2", expt.DefaultBudgetRound2, "irace budget for tuning round 2")
		scale     = fs.Float64("scale", ubench.DefaultScale, "micro-benchmark scale factor")
		seed      = fs.Int64("seed", 0, "tuner seed")
		out       = fs.String("out", "", "write the tuned config JSON here")
		quiet     = fs.Bool("q", false, "suppress progress output")
		budgets   = fs.String("budgets", "", "accuracy-budget JSON file declaring per-board tolerances")
		reportDir = fs.String("report-dir", "", "persist the report JSON to <dir>/validate-<core>.json (diffable history)")
		gate      = fs.Bool("gate", false, "fail (exit non-zero) when the report violates the budget")
	)
	parallelism, cache, cpuprofile, memprofile := lifecycleFlags(fs)
	fs.Parse(args)
	budgetJSON, err := readInput(*budgets)
	if err != nil {
		return err
	}
	res, err := execute(engine.Job{
		Kind: engine.KindValidate,
		Validate: &engine.ValidateJob{
			Core:       *coreK,
			Budget1:    *budget1,
			Budget2:    *budget2,
			Scale:      *scale,
			Seed:       *seed,
			Quiet:      *quiet,
			BudgetJSON: budgetJSON,
			Gate:       *gate,
		},
	}, false, *parallelism, *cache, *cpuprofile, *memprofile)
	// Whatever the job's outcome, what it produced is written: a -gate
	// violation fails the job after the report is built, and CI reads the
	// report it leaves on disk.
	if len(res.Report) > 0 && *reportDir != "" {
		werr := os.MkdirAll(*reportDir, 0o755)
		if werr == nil {
			// Named for the core the job ran: an empty -core is the A53.
			werr = writeOutput(filepath.Join(*reportDir, "validate-"+cmp.Or(*coreK, "a53")+".json"), "validation report to ", res.Report)
		}
		err = errors.Join(err, werr)
	}
	if len(res.TunedConfig) > 0 && *out != "" {
		err = errors.Join(err, writeOutput(*out, "tuned configuration to ", res.TunedConfig))
	}
	return err
}

func cmdUbench(args []string) error {
	fs := flag.NewFlagSet("racesim ubench", flag.ExitOnError)
	var (
		list    = fs.Bool("list", false, "list the suite")
		dump    = fs.String("dump", "", "record a benchmark trace to -o")
		out     = fs.String("o", "bench.rift", "output path for -dump")
		compare = fs.String("compare", "", "compare a benchmark (or 'all') between board and model")
		disasm  = fs.String("disasm", "", "print a benchmark's assembly listing")
		coreK   = fs.String("core", "a53", "core for -compare: a53 or a72")
		scale   = fs.Float64("scale", ubench.DefaultScale, "scale factor")
		initArr = fs.Bool("init-arrays", false, "initialize arrays before the timed loop")
	)
	parallelism, cache, cpuprofile, memprofile := lifecycleFlags(fs)
	fs.Parse(args)
	_, err := execute(engine.Job{
		Kind: engine.KindUbench,
		Ubench: &engine.UbenchJob{
			List:       *list,
			Dump:       *dump,
			DumpOut:    *out,
			Compare:    *compare,
			Disasm:     *disasm,
			Core:       *coreK,
			Scale:      *scale,
			InitArrays: *initArr,
		},
	}, false, *parallelism, *cache, *cpuprofile, *memprofile)
	return err
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("racesim serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers     = fs.Int("workers", 1, "concurrent jobs (each fans simulations across -parallelism cores)")
		queueDepth  = fs.Int("queue-depth", 64, "maximum queued jobs before POST /v1/jobs answers 429 with Retry-After")
		parallelism = fs.Int("parallelism", 0, "concurrent simulations per job (0 = GOMAXPROCS)")
		cache       = fs.String("cache", "", "warm the shared cache from this snapshot at startup; saved on drain")
		drainWait   = fs.Duration("drain-timeout", 10*time.Minute, "how long SIGTERM waits for running jobs before exiting")
		announce    = fs.String("announce", "", "write the bound listen address to this file once serving (for -addr :0 spawners)")
		jobTimeout  = fs.Duration("job-timeout", 0, "server-enforced deadline per job (0 = none; jobs may also carry their own shorter timeout)")
		memBudget   = fs.Int64("mem-budget", 0, "in-memory cache budget in MiB (0 = unbounded); excess entries evict LRU-first")
	)
	fs.Parse(args)

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	srv, err := engine.NewServer(engine.ServerOptions{
		Parallelism:  *parallelism,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CachePath:    *cache,
		JobTimeout:   *jobTimeout,
		MemoryBudget: *memBudget << 20,
		Log:          logf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logf("serve: listening on http://%s (POST /v1/jobs)", ln.Addr())
	if *announce != "" {
		// Atomic write: a spawner polling the file never reads a torn
		// address.
		tmp := *announce + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *announce); err != nil {
			return err
		}
	}

	// Graceful drain: stop accepting, let queued and running jobs finish,
	// persist the warm cache, then exit. A second signal aborts.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigCh:
		logf("serve: %v: draining (%d queued); signal again to abort", sig, srv.QueueLen())
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	go func() {
		<-sigCh
		logf("serve: second signal: aborting drain")
		cancel()
	}()
	if err := srv.Drain(ctx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
