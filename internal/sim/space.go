package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/irace"
	"racesim/internal/isa"
	"racesim/internal/prefetch"
)

// ParamDef is one tunable simulator parameter: the irace.Param the tuner
// samples (its name and candidate values), when a model reads it, and the
// one Config field it names, which Get reads and Set writes. The set of
// ParamDefs is the "list of unknown parameters" of methodology step 3 —
// everything the reference manuals do not disclose.
type ParamDef struct {
	irace.Param
	// When is the parameter's activation condition: the configurations
	// whose models read its field. nil means always. A field it leaves
	// active that some kind does not read only costs a missed
	// deduplication; one it marks inactive that a model reads would make
	// Canonical merge configurations that simulate differently.
	When *Cond
	// TimingOnly declares that the field moves only when memory accesses
	// complete, never what they find: the tape key (tapeKey) leaves it out.
	TimingOnly bool
	// Reads names the entry of a trace's read profile (Profile) that bounds
	// what the field can change on that trace; TraceCanonical merges the
	// values the entry proves alike. The zero Read bounds nothing. One that
	// merges values a model tells apart would make the simulation cache
	// answer one configuration with another's result.
	Reads Read

	// field is the leaf (see plan.go) of the Config field the parameter
	// names. buildParams resolves parent, the leaf of When.Parent's field,
	// and, for a conditional, timing-only or profile-bounded parameter,
	// first: Values[0] as field holds it (leaf.int).
	field, parent *leaf
	first         int
}

// Cond is an activation condition in irace's form for conditional
// parameters, "name | Parent in {Values}" (or "not in" with Not). A Cond
// with no Parent is never satisfied: no model reads the parameter.
type Cond struct {
	Parent string
	Values []string
	Not    bool
}

// whenIn, unless and never build the three forms of Cond.
func whenIn(parent string, vs ...string) *Cond { return &Cond{Parent: parent, Values: vs} }
func unless(parent string, vs ...string) *Cond { return &Cond{Parent: parent, Values: vs, Not: true} }

var never = &Cond{}

// Active reports whether a model reads d's field in c. It reads the
// parent's field through its leaf, so that a configuration on the stack
// stays there (Canonical allocates nothing).
func (d *ParamDef) Active(c *Config) bool {
	if d.When == nil {
		return true
	}
	if d.parent == nil {
		return false
	}
	return slices.Contains(d.When.Values, d.parent.str(c)) != d.When.Not
}

// Get reads d's field from c in the form of its values.
func (d *ParamDef) Get(c *Config) string {
	if d.field.kind == reflect.Int {
		return strconv.Itoa(d.field.int(c))
	}
	return d.field.str(c)
}

// Set writes v into d's field of c, and nothing else. An int parameter
// takes any integer, listed or not; a bool only "true" or "false"; a
// categorical only one of its values. A refused v leaves c as it was.
func (d *ParamDef) Set(c *Config, v string) error {
	switch d.field.kind {
	case reflect.Int:
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("sim: %s: %w", d.Name, err)
		}
		d.field.setInt(c, n)
	case reflect.Bool:
		if v != "true" && v != "false" {
			return fmt.Errorf("sim: %s: bad bool %q", d.Name, v)
		}
		*(*bool)(d.field.ptr(c)) = v == "true"
	default:
		if !slices.Contains(d.Values, v) {
			return fmt.Errorf("sim: %s: bad value %q", d.Name, v)
		}
		*(*string)(d.field.ptr(c)) = v
	}
	return nil
}

// when returns d with activation condition w.
func (d ParamDef) when(w *Cond) ParamDef {
	d.When = w
	return d
}

// timingOnly returns d declared timing-only.
func (d ParamDef) timingOnly() ParamDef {
	d.TimingOnly = true
	return d
}

// reads returns d bounded by the profile entry r.
func (d ParamDef) reads(r Read) ParamDef {
	d.Reads = r
	return d
}

// leafOf returns the leaf get points at. get is called once, on a zero
// Config; a pointer that is not to a leaf of T's kind — a nested struct,
// or a field reinterpreted as another type — panics when the table is
// built.
func leafOf[T any](get func(*Config) *T) *leaf {
	var c Config
	off := uintptr(unsafe.Pointer(get(&c))) - uintptr(unsafe.Pointer(&c))
	kind := reflect.TypeFor[T]().Kind()
	for i := range leaves {
		if l := &leaves[i]; l.off == off && l.kind == kind {
			return l
		}
	}
	panic(fmt.Sprintf("sim: no %s field of Config at offset %d", kind, off))
}

func intParam(name string, get func(*Config) *int, vs ...int) ParamDef {
	values := make([]string, len(vs))
	for i, v := range vs {
		values[i] = strconv.Itoa(v)
	}
	return ParamDef{Param: irace.Param{Name: name, Values: values, Ordered: true}, field: leafOf(get)}
}

func boolParam(name string, get func(*Config) *bool) ParamDef {
	return ParamDef{Param: irace.Param{Name: name, Values: []string{"false", "true"}}, field: leafOf(get)}
}

func choiceParam[K ~string](name string, get func(*Config) *K, vs ...K) ParamDef {
	values := make([]string, len(vs))
	for i, v := range vs {
		values[i] = string(v)
	}
	return ParamDef{Param: irace.Param{Name: name, Values: values}, field: leafOf(get)}
}

// prefetchParams declares a level's prefetcher. Kind none reads none of
// its fields; next_line and spatial (the A72 board's, never offered to the
// tuner) read no table, stride and ghb read every field (prefetch.go).
func prefetchParams(prefix string, get func(*Config) *prefetch.Config, degrees, distances, tables []int) []ParamDef {
	kind := prefix + ".kind"
	on := unless(kind, string(prefetch.KindNone))
	return []ParamDef{
		choiceParam(kind, func(c *Config) *prefetch.Kind { return &get(c).Kind }, prefetch.Kinds...),
		intParam(prefix+".degree", func(c *Config) *int { return &get(c).Degree }, degrees...).when(on),
		intParam(prefix+".distance", func(c *Config) *int { return &get(c).Distance }, distances...).when(on),
		intParam(prefix+".table", func(c *Config) *int { return &get(c).TableEntries }, tables...).
			when(unless(kind, string(prefetch.KindNone), string(prefetch.KindNextLine))),
		boolParam(prefix+".on_hit", func(c *Config) *bool { return &get(c).OnHit }).when(on),
	}
}

func cacheParams(prefix string, get func(*Config) *cache.Config, hitLats ...int) []ParamDef {
	return []ParamDef{
		intParam(prefix+".hit_latency", func(c *Config) *int { return &get(c).HitLatency }, hitLats...).timingOnly(),
		boolParam(prefix+".tag_data_serial", func(c *Config) *bool { return &get(c).TagDataSerial }).timingOnly(),
		choiceParam(prefix+".hash", func(c *Config) *cache.HashKind { return &get(c).Hash }, cache.HashKinds...),
		choiceParam(prefix+".repl", func(c *Config) *cache.ReplKind { return &get(c).Repl }, cache.ReplKinds...),
		intParam(prefix+".ports", func(c *Config) *int { return &get(c).Ports }, 1, 2).timingOnly(),
	}
}

// The two parameter tables, each built on first use.
var (
	inOrderParams = sync.OnceValue(func() []ParamDef { return buildParams(core.InOrder) })
	oooParams     = sync.OnceValue(func() []ParamDef { return buildParams(core.OutOfOrder) })
)

// Params returns the tunable parameter definitions for a core kind. The
// table is built once per kind and shared by every caller — Apply runs per
// (candidate, instance) in a race and per trial in the perturbation search
// — so callers must not modify it: range over it, copy what you change.
func Params(kind core.Kind) []ParamDef {
	if kind == core.InOrder {
		return inOrderParams()
	}
	return oooParams()
}

func buildParams(kind core.Kind) []ParamDef {
	var defs []ParamDef
	add := func(ps ...ParamDef) { defs = append(defs, ps...) }

	// Branch prediction unit: entirely undisclosed.
	add(choiceParam("branch.kind", func(c *Config) *branch.Kind { return &c.Branch.Kind }, branch.Kinds...))
	// Each direction predictor reads only its own tables (branch.Unit.Reset).
	bimodal := whenIn("branch.kind", string(branch.KindBimodal), string(branch.KindTournament))
	gshare := whenIn("branch.kind", string(branch.KindGShare), string(branch.KindTournament))
	add(intParam("branch.bimodal_entries", func(c *Config) *int { return &c.Branch.BimodalEntries }, 512, 1024, 2048, 4096, 8192).when(bimodal).reads(Read{entry: readBranchPCs}))
	add(intParam("branch.gshare_entries", func(c *Config) *int { return &c.Branch.GShareEntries }, 512, 1024, 2048, 4096, 8192).when(gshare).reads(Read{entry: readGShareKeys}))
	add(intParam("branch.history_bits", func(c *Config) *int { return &c.Branch.HistoryBits }, 4, 6, 8, 10, 12).when(gshare))
	add(intParam("branch.chooser_entries", func(c *Config) *int { return &c.Branch.ChooserEntries }, 512, 1024, 2048, 4096).
		when(whenIn("branch.kind", string(branch.KindTournament))).reads(Read{entry: readBranchPCs}))
	add(intParam("branch.btb_entries", func(c *Config) *int { return &c.Branch.BTBEntries }, 64, 128, 256, 512, 1024).reads(Read{entry: readBTBSets}))
	add(intParam("branch.btb_assoc", func(c *Config) *int { return &c.Branch.BTBAssoc }, 1, 2, 4).reads(Read{entry: readBTBSets}))
	add(intParam("branch.ras_entries", func(c *Config) *int { return &c.Branch.RASEntries }, 4, 8, 16, 32).reads(Read{entry: readCallSpan}))
	add(boolParam("branch.indirect", func(c *Config) *bool { return &c.Branch.IndirectEnabled }).reads(Read{entry: readIndirect}))
	indirect := whenIn("branch.indirect", "true")
	add(intParam("branch.indirect_entries", func(c *Config) *int { return &c.Branch.IndirectEntries }, 128, 256, 512, 1024).when(indirect).reads(Read{entry: readIndirectKeys}))
	add(intParam("branch.indirect_history", func(c *Config) *int { return &c.Branch.IndirectHistory }, 2, 4, 8).when(indirect))
	add(intParam("frontend.mispredict_penalty", func(c *Config) *int { return &c.FrontEnd.MispredictPenalty }, 6, 8, 10, 12, 14, 16, 18))
	add(intParam("frontend.btb_miss_penalty", func(c *Config) *int { return &c.FrontEnd.BTBMissPenalty }, 0, 1, 2, 3, 4))

	// L1 data cache.
	add(cacheParams("l1d", func(c *Config) *cache.Config { return &c.Mem.L1D }, 2, 3, 4)...)
	add(intParam("l1d.victim_entries", func(c *Config) *int { return &c.Mem.L1D.VictimEntries }, 0, 2, 4, 8))
	add(prefetchParams("l1d.prefetch", func(c *Config) *prefetch.Config { return &c.Mem.L1D.Prefetch },
		[]int{1, 2, 4}, []int{1, 2, 4, 8}, []int{16, 32, 64, 128})...)

	// L1 instruction cache.
	add(intParam("l1i.hit_latency", func(c *Config) *int { return &c.Mem.L1I.HitLatency }, 1, 2, 3).timingOnly())
	add(boolParam("l1i.tag_data_serial", func(c *Config) *bool { return &c.Mem.L1I.TagDataSerial }).timingOnly())
	add(choiceParam("l1i.prefetch.kind", func(c *Config) *prefetch.Kind { return &c.Mem.L1I.Prefetch.Kind },
		prefetch.KindNone, prefetch.KindNextLine))
	add(intParam("l1i.prefetch.degree", func(c *Config) *int { return &c.Mem.L1I.Prefetch.Degree }, 1, 2).
		when(unless("l1i.prefetch.kind", string(prefetch.KindNone))))

	// L2 cache.
	add(cacheParams("l2", func(c *Config) *cache.Config { return &c.Mem.L2 }, 9, 12, 15, 18, 21)...)
	// The cores bound outstanding misses with l1d.mshrs; a level's MSHRs
	// is validated and read by no model (docs/validation.md).
	add(intParam("l2.mshrs", func(c *Config) *int { return &c.Mem.L2.MSHRs }, 4, 8, 12, 16).when(never).timingOnly())
	add(intParam("l2.victim_entries", func(c *Config) *int { return &c.Mem.L2.VictimEntries }, 0, 4, 8))
	add(prefetchParams("l2.prefetch", func(c *Config) *prefetch.Config { return &c.Mem.L2.Prefetch },
		[]int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16}, []int{32, 64, 128, 256})...)

	// TLBs and paging.
	add(intParam("tlb.itlb_entries", func(c *Config) *int { return &c.Mem.ITLBEntries }, 16, 32, 48, 64).reads(Read{entry: readCodePages}))
	add(intParam("tlb.dtlb_entries", func(c *Config) *int { return &c.Mem.DTLBEntries }, 16, 32, 48, 64).reads(Read{entry: readDataPages}))
	add(intParam("tlb.miss_latency", func(c *Config) *int { return &c.Mem.TLBMissLatency }, 10, 20, 30, 40).timingOnly())

	// Main memory organisation.
	add(intParam("dram.latency", func(c *Config) *int { return &c.Mem.DRAM.LatencyCycles }, 140, 160, 180, 200, 220, 240).timingOnly())
	add(intParam("dram.burst", func(c *Config) *int { return &c.Mem.DRAM.BurstCycles }, 4, 6, 8, 12).timingOnly())
	add(intParam("dram.queue_depth", func(c *Config) *int { return &c.Mem.DRAM.QueueDepth }, 8, 16, 32).timingOnly())

	// Execution latencies and initiation intervals.
	add(intParam("lat.int_mul", func(c *Config) *int { return &c.Lat.IntMul }, 2, 3, 4, 5).reads(classes(isa.ClassIntMul)))
	add(intParam("lat.int_div", func(c *Config) *int { return &c.Lat.IntDiv }, 8, 10, 12, 16, 20).reads(classes(isa.ClassIntDiv)))
	add(intParam("lat.int_div_ii", func(c *Config) *int { return &c.Lat.IntDivII }, 1, 4, 8, 12, 16, 20).reads(classes(isa.ClassIntDiv)))
	add(intParam("lat.fp_add", func(c *Config) *int { return &c.Lat.FPAdd }, 3, 4, 5, 6).reads(classes(isa.ClassFPAdd)))
	add(intParam("lat.fp_mul", func(c *Config) *int { return &c.Lat.FPMul }, 3, 4, 5, 6).reads(classes(isa.ClassFPMul)))
	add(intParam("lat.fp_div", func(c *Config) *int { return &c.Lat.FPDiv }, 10, 14, 18, 22, 26).reads(classes(isa.ClassFPDiv)))
	add(intParam("lat.fp_div_ii", func(c *Config) *int { return &c.Lat.FPDivII }, 1, 4, 10, 18, 26).reads(classes(isa.ClassFPDiv)))
	add(intParam("lat.fp_cvt", func(c *Config) *int { return &c.Lat.FPCvt }, 2, 3, 4, 5).reads(classes(isa.ClassFPCvt)))
	add(intParam("lat.simd", func(c *Config) *int { return &c.Lat.SIMD }, 2, 3, 4, 5).reads(classes(isa.ClassSIMD)))

	// Pipe counts (contention model structure).
	add(intParam("pipes.int_alu", func(c *Config) *int { return &c.Pipes.IntALU }, 1, 2, 3).reads(classes(isa.ClassIntAlu)))
	add(intParam("pipes.fp", func(c *Config) *int { return &c.Pipes.FP }, 1, 2, 3).
		reads(classes(isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPCvt, isa.ClassSIMD)))

	// Core-structure parameters differ per kind.
	if kind == core.InOrder {
		add(intParam("l1d.mshrs", func(c *Config) *int { return &c.MSHRs }, 1, 2, 3, 4, 6))
		add(boolParam("core.dual_issue_ls", func(c *Config) *bool { return &c.DualIssueLoadStore }))
		add(intParam("core.max_mem_per_cycle", func(c *Config) *int { return &c.MaxMemPerCycle }, 1, 2))
		add(intParam("core.store_buffer", func(c *Config) *int { return &c.StoreBufferEntries }, 2, 4, 6, 8, 12))
	} else {
		add(intParam("l1d.mshrs", func(c *Config) *int { return &c.MSHRs }, 2, 4, 6, 8, 12, 16))
		add(intParam("core.rob", func(c *Config) *int { return &c.ROBEntries }, 64, 96, 128, 160, 192))
		add(intParam("core.iq", func(c *Config) *int { return &c.IQEntries }, 16, 24, 32, 48, 64))
		add(intParam("core.lq", func(c *Config) *int { return &c.LQEntries }, 8, 16, 24, 32))
		add(intParam("core.sq", func(c *Config) *int { return &c.SQEntries }, 8, 16, 24, 32))
		add(intParam("core.retire_width", func(c *Config) *int { return &c.RetireWidth }, 2, 3, 4))
		add(intParam("pipes.load", func(c *Config) *int { return &c.Pipes.Load }, 1, 2).reads(classes(isa.ClassLoad)))
		add(intParam("pipes.store", func(c *Config) *int { return &c.Pipes.Store }, 1, 2).reads(classes(isa.ClassStore)))
	}
	for i := range defs {
		d := &defs[i]
		if d.When == nil && !d.TimingOnly && d.Reads.entry == readAny {
			continue
		}
		// canonicalize and TraceCanonical write Values[0] into such a
		// parameter's field.
		if k := d.field.kind; k != reflect.Int && k != reflect.Bool {
			panic(fmt.Sprintf("sim: %s: a conditional, timing-only or profile-bounded parameter must be an int or a bool", d.Name))
		}
		var first Config
		_ = d.Set(&first, d.Values[0]) // a listed value: it parses
		d.first = d.field.int(&first)
		if d.When == nil || d.When.Parent == "" {
			continue
		}
		j := slices.IndexFunc(defs, func(p ParamDef) bool { return p.Name == d.When.Parent })
		if j < 0 || defs[j].When != nil || defs[j].TimingOnly || defs[j].field.kind == reflect.Int {
			panic(fmt.Sprintf("sim: %s: condition parent %q is not an unconditional, functional choice or bool", d.Name, d.When.Parent))
		}
		d.parent = defs[j].field
	}
	return defs
}

// Space builds the irace search space for a core kind: every tunable's
// irace.Param but those exclude names.
func Space(kind core.Kind, exclude map[string]bool) (*irace.Space, error) {
	var params []irace.Param
	for _, d := range Params(kind) {
		if !exclude[d.Name] {
			params = append(params, d.Param)
		}
	}
	return irace.NewSpace(params)
}

// Apply overlays an assignment of tunable parameters onto a base
// configuration and returns the result.
func Apply(base Config, a irace.Assignment) (Config, error) {
	cfg := base
	for _, d := range Params(base.Kind) {
		v, ok := a[d.Name]
		if !ok {
			continue
		}
		if err := d.Set(&cfg, v); err != nil {
			return Config{}, err
		}
	}
	if err := core.Config(cfg).Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Canonical returns the configuration a simulation-cache key stands for:
// cfg with Name cleared and every tunable no model reads (ParamDef.When)
// set to its first listed value. Configurations with one canonical form
// simulate identically, so Canonical is for keys and equality only;
// nothing is simulated under it. It is defined for valid configurations:
// an invalid one may share its canonical form with a valid one. Each
// condition's parent is read and each inactive field written through its
// leaf in the compiled plan (plan.go): no reflection, no allocation.
func Canonical(cfg Config) Config {
	canonicalize(&cfg, false)
	return cfg
}

// tapeKey returns the key of cfg's decision tape (core.TapeMemo): the Mem
// of its canonical form with timing-only tunables fixed; non-tunables stay.
func tapeKey(cfg Config) cache.HierarchyConfig {
	canonicalize(&cfg, true)
	return cfg.Mem
}

// canonicalize makes c canonical in place, with timing the tape key's form.
// No write moves what a later Active reads: a condition's parent is
// neither conditional nor timing-only (buildParams).
func canonicalize(c *Config, timing bool) {
	c.Name = ""
	defs := Params(c.Kind)
	for i := range defs {
		if d := &defs[i]; timing && d.TimingOnly || !d.Active(c) {
			d.field.setInt(c, d.first) // no parsing: c stays on the stack
		}
	}
}

// Extract reads the current values of every tunable parameter from cfg as
// an assignment (used to express ground truths and perturbation baselines).
func Extract(cfg Config) irace.Assignment {
	a := irace.Assignment{}
	for _, d := range Params(cfg.Kind) {
		a[d.Name] = d.Get(&cfg)
	}
	return a
}
