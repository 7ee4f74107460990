// Package racesim is the public API of the racesim library: a
// hardware-validated processor-simulation toolkit reproducing "Racing to
// Hardware-Validated Simulation" (Adileh et al., ISPASS 2019).
//
// The library bundles:
//
//   - a trace-driven processor simulator with in-order (Cortex-A53 class)
//     and out-of-order (Cortex-A72 class) timing models, configurable
//     branch prediction, cache hierarchy, prefetching and contention
//     models (packages internal/core, internal/cache, internal/branch);
//   - a front-end substrate: an AArch64-like ISA, assembler, functional
//     emulator and SIFT-style trace format (internal/isa, internal/asm,
//     internal/emu, internal/trace);
//   - the 40 targeted micro-benchmarks of the paper's Table I and
//     synthetic SPEC CPU2017-like workloads of Table II (internal/ubench,
//     internal/workload);
//   - an iterated-racing tuner and the full validation methodology
//     (internal/irace, internal/validate), plus the near-optimum
//     sensitivity study (internal/perturb);
//   - a reference "hardware" board with a hidden ground-truth
//     configuration standing in for the paper's Firefly RK3399
//     (internal/hw) and lmbench-style latency probes (internal/lmbench).
//
// This facade re-exports the types and constructors a downstream user
// needs; the examples/ directory shows complete programs.
package racesim

import (
	"racesim/internal/core"
	"racesim/internal/expt"
	"racesim/internal/hw"
	"racesim/internal/irace"
	"racesim/internal/perturb"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/validate"
	"racesim/internal/workload"
)

// Core simulator configuration and execution.
type (
	// Config fully describes a simulated core (see sim.Config).
	Config = sim.Config
	// CoreKind selects the timing model ("inorder" or "ooo").
	CoreKind = core.Kind
	// Trace is a recorded dynamic instruction stream.
	Trace = trace.Trace
)

// Core kinds.
const (
	InOrder    = core.InOrder
	OutOfOrder = core.OutOfOrder
)

// Public model presets (methodology steps 1-3).
var (
	PublicA53 = sim.PublicA53
	PublicA72 = sim.PublicA72
)

// LoadConfig reads and validates a JSON configuration.
var LoadConfig = sim.LoadConfig

// Reference hardware.
type (
	// Board is one measurable core of the reference platform.
	Board = hw.Board
	// Counters is the perf-style measurement result.
	Counters = hw.Counters
	// Platform is the two-core reference board.
	Platform = hw.Platform
)

// Firefly returns the RK3399-like reference platform.
var Firefly = hw.Firefly

// Micro-benchmarks (Table I).
type (
	// Bench is one targeted micro-benchmark.
	Bench = ubench.Bench
	// BenchOptions parameterizes micro-benchmark generation.
	BenchOptions = ubench.Options
)

// Suite returns the 40 Table I micro-benchmarks.
var Suite = ubench.Suite

// BenchByName finds a Table I micro-benchmark.
var BenchByName = ubench.ByName

// Workloads (Table II).
type (
	// WorkloadProfile characterizes one SPEC-like benchmark.
	WorkloadProfile = workload.Profile
	// WorkloadOptions parameterizes synthesis.
	WorkloadOptions = workload.Options
)

// Workloads returns the Table II profiles.
var Workloads = workload.Profiles

// GenerateWorkload synthesizes a workload trace.
var GenerateWorkload = workload.Generate

// Validation methodology.
type (
	// Measurement is one tuning instance (trace + board counters).
	Measurement = validate.Measurement
	// TuneOptions configures a tuning round.
	TuneOptions = validate.TuneOptions
	// TuneResult is a tuning round's outcome.
	TuneResult = validate.TuneResult
	// Stage is one step of the methodology: fixes, then tune or evaluate.
	Stage = validate.Stage
	// StageResult is one stage of the staged pipeline.
	StageResult = validate.StageResult
	// PipelineOptions configures a run of stages.
	PipelineOptions = validate.PipelineOptions
	// Assignment maps tunable parameter names to values.
	Assignment = irace.Assignment
)

// Methodology entry points.
var (
	// MeasureSuite records and measures all micro-benchmarks once.
	MeasureSuite = validate.MeasureSuite
	// Tune runs one iterated-racing round (methodology step 4).
	Tune = validate.Tune
	// Pipeline runs a list of stages, e.g. PaperStages.
	Pipeline = validate.Pipeline
	// PaperStages is the paper's Figure 1 flow as stages.
	PaperStages = validate.PaperStages
	// SpaceFor returns the tunable-parameter space for a core kind, without
	// the parameters its exclude set names (nil: all of them).
	SpaceFor = sim.Space
	// ApplyAssignment overlays tuned parameters onto a base config.
	ApplyAssignment = sim.Apply
	// ExtractAssignment reads the tunables out of a config.
	ExtractAssignment = sim.Extract
)

// Sensitivity study (Figures 7-8).
type (
	// PerturbWorkload pairs an evaluation trace with board counters.
	PerturbWorkload = perturb.Workload
	// PerturbOptions configures the worst-case search.
	PerturbOptions = perturb.Options
	// PerturbResult is the worst near-optimum configuration found.
	PerturbResult = perturb.Result
)

// WorstNearOptimum searches single-step deviations for the worst model.
var WorstNearOptimum = perturb.WorstNearOptimum

// Experiments harness (tables and figures of the paper).
type (
	// Experiment couples a regenerated artifact with the paper's claim.
	Experiment = expt.Experiment
	// ExperimentOptions sizes experiment runs.
	ExperimentOptions = expt.Options
	// ExperimentContext caches artifacts across experiments.
	ExperimentContext = expt.Context
	// SimCache memoizes simulation results across experiments and runs.
	SimCache = simcache.Cache
	// SimCacheStats snapshots cache effectiveness.
	SimCacheStats = simcache.Stats
)

// NewExperiments builds an experiment context.
var NewExperiments = expt.NewContext

// NewSimCache returns an empty in-memory simulation cache; see
// SimCache.LoadFile/SaveFile for cross-process persistence.
var NewSimCache = simcache.New
