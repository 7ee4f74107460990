// Package ubench implements the 40 targeted micro-benchmarks of the
// paper's Table I (after the VerticalResearchGroup "microbench" suite) as
// parameterized assembly program generators for the racesim ISA. Each
// benchmark stresses one processor component — control flow, data-parallel
// floating point, execution dependencies, the memory hierarchy, or stores —
// so the tuner can attribute modeling error to individual components.
package ubench

import (
	"fmt"

	"racesim/internal/asm"
	"racesim/internal/isa"
	"racesim/internal/trace"
)

// Category groups benchmarks by the component they stress.
type Category string

// Benchmark categories from Table I.
const (
	CatMemory       Category = "memory"
	CatControl      Category = "control"
	CatDataParallel Category = "data_parallel"
	CatExecution    Category = "execution"
	CatStore        Category = "store"
)

// Categories lists all categories in presentation order.
var Categories = []Category{CatMemory, CatControl, CatDataParallel, CatExecution, CatStore}

// DefaultScale is the scale the suite is generated at unless a caller says
// otherwise: 1/100 of Table I's dynamic instruction counts.
const DefaultScale = 0.01

// Options parameterizes program generation.
type Options struct {
	// Scale multiplies the paper's dynamic instruction count to size the
	// generated main loop, clamped to [MinInstructions, MaxInstructions]; 0
	// means DefaultScale.
	Scale float64
	// InitArrays writes every array before the timed loop — the fix the
	// paper applies after discovering the uninitialized-page effect.
	// Benchmarks that deliberately read uninitialized memory honour it.
	InitArrays bool
}

// Instruction-count clamps for generated benchmarks.
const (
	MinInstructions = 4_000
	MaxInstructions = 150_000
)

// Bench is one generated micro-benchmark.
type Bench struct {
	Name     string
	Category Category
	// PaperInstructions is the dynamic AArch64 instruction count reported
	// in Table I.
	PaperInstructions uint64
	// Description says which behaviour the benchmark isolates.
	Description string
	// ReadsUninitialized marks benchmarks that stream over never-written
	// memory (the zero-fill page effect of Sec. IV-B).
	ReadsUninitialized bool

	build func(o Options, target uint64) string
}

// Target returns the scaled dynamic instruction goal for the options.
func (b Bench) Target(o Options) uint64 {
	scale := o.Scale
	if scale <= 0 {
		scale = DefaultScale
	}
	t := uint64(float64(b.PaperInstructions) * scale)
	if t < MinInstructions {
		t = MinInstructions
	}
	if t > MaxInstructions {
		t = MaxInstructions
	}
	return t
}

// Program assembles the benchmark.
func (b Bench) Program(o Options) (*isa.Program, error) {
	src := b.build(o, b.Target(o))
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("ubench %s: %w", b.Name, err)
	}
	return p, nil
}

// Trace generates, runs and records the benchmark.
func (b Bench) Trace(o Options) (*trace.Trace, error) {
	p, err := b.Program(o)
	if err != nil {
		return nil, err
	}
	// Allow generous headroom over the target for setup/init loops.
	tr, err := trace.Record(b.Name, p, 4*b.Target(o)+1_000_000)
	if err != nil {
		return nil, fmt.Errorf("ubench %s: %w", b.Name, err)
	}
	return tr, nil
}

var suite []Bench
var byName = map[string]int{}

func register(b Bench) {
	if _, dup := byName[b.Name]; dup {
		panic("ubench: duplicate benchmark " + b.Name)
	}
	byName[b.Name] = len(suite)
	suite = append(suite, b)
}

// Suite returns all benchmarks in Table I order (memory, control,
// data-parallel, execution, store).
func Suite() []Bench {
	out := make([]Bench, len(suite))
	copy(out, suite)
	return out
}

// ByName looks a benchmark up by its Table I name.
func ByName(name string) (Bench, bool) {
	i, ok := byName[name]
	if !ok {
		return Bench{}, false
	}
	return suite[i], true
}

// ByCategory returns the benchmarks of one category, suite-ordered.
func ByCategory(cat Category) []Bench {
	var out []Bench
	for _, b := range suite {
		if b.Category == cat {
			out = append(out, b)
		}
	}
	return out
}
