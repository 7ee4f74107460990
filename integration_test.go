package racesim

import (
	"path/filepath"
	"strings"
	"testing"

	"racesim/internal/asm"
	"racesim/internal/irace"
	"racesim/internal/isa"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/validate"
	"racesim/internal/workload"
)

// TestEndToEndAssembleTraceSimulate walks the full front-end-to-back-end
// path: source text -> program -> emulated trace -> RIFT file -> reload ->
// both timing models.
func TestEndToEndAssembleTraceSimulate(t *testing.T) {
	prog, err := asm.Assemble(`
		.equ BUF, 0x30000
		.org 0x1000
		la x1, BUF
		la x9, 3000
	loop:
		ldrx x2, [x1, #0]
		addi x2, x2, #1
		strx x2, [x1, #0]
		addi x1, x1, #64
		andi x1, x1, #0xFFFF
		subi x9, x9, #1
		cbnz x9, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record("e2e", prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "e2e.rift")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{PublicA53(), PublicA72()} {
		direct, err := cfg.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := cfg.Run(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if direct != reloaded {
			t.Errorf("%s: trace serialization changed the timing result", cfg.Name)
		}
	}
}

// TestEndToEndTinyValidation runs the whole methodology loop at the
// smallest possible scale through the public facade.
func TestEndToEndTinyValidation(t *testing.T) {
	plat, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureSuite(plat.A53, BenchOptions{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(PublicA53(), ms, TuneOptions{Budget: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, err := validate.Errors(PublicA53(), ms)
	if err != nil {
		t.Fatal(err)
	}
	afterMean, err := validate.MeanError(res.Errors)
	if err != nil {
		t.Fatal(err)
	}
	beforeMean, err := validate.MeanError(before)
	if err != nil {
		t.Fatal(err)
	}
	if afterMean >= beforeMean {
		t.Errorf("facade tuning did not improve: %.3f -> %.3f", beforeMean, afterMean)
	}
}

// TestTunedConfigSurvivesJSON tunes, serializes, reloads, and confirms the
// reloaded model reproduces identical results.
func TestTunedConfigSurvivesJSON(t *testing.T) {
	plat, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ubench.ByName("CCh")
	tr, err := b.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	tuned := plat.A53.TrueConfig()
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := tuned.MarshalJSONFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tuned.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loaded.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("JSON round trip changed simulation results")
	}
}

// TestDecoderBugOnlyAffectsTiming confirms the reproduced Capstone-style
// bug perturbs timing while leaving the functional trace identical.
func TestDecoderBugOnlyAffectsTiming(t *testing.T) {
	b, _ := ubench.ByName("EF")
	tr1, err := b.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := b.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Len() != tr2.Len() {
		t.Fatal("trace generation is not deterministic")
	}
	good := PublicA53()
	good.DecoderDepBug = false
	bad := PublicA53()
	bad.DecoderDepBug = true
	gres, err := good.Run(tr1)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := bad.Run(tr1)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Cycles == bres.Cycles {
		t.Error("decoder bug had no timing effect on an FP-chain benchmark")
	}
	if gres.Instructions != bres.Instructions {
		t.Error("decoder bug changed the instruction count")
	}
}

// TestWorkloadsAreDistinguishable checks that different Table II profiles
// produce measurably different behaviour on the same board.
func TestWorkloadsAreDistinguishable(t *testing.T) {
	plat, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	cpis := map[string]float64{}
	for _, name := range []string{"mcf", "imagick", "deepsjeng"} {
		p, _ := workload.ByName(name)
		wtr, err := workload.Generate(p, workload.Options{Events: 40_000})
		if err != nil {
			t.Fatal(err)
		}
		c, err := plat.A53.Measure(wtr)
		if err != nil {
			t.Fatal(err)
		}
		cpis[name] = c.CPI
	}
	if cpis["mcf"] <= cpis["imagick"] {
		t.Errorf("mcf CPI %.2f should exceed imagick %.2f", cpis["mcf"], cpis["imagick"])
	}
}

// TestParamSpaceRoundTripsThroughDisassembler is a cross-module sanity
// check: every µbench program disassembles, and its listing mentions the
// mnemonics its category implies.
func TestSuiteDisassembles(t *testing.T) {
	for _, name := range []string{"MD", "CS1", "DP1d", "EM1"} {
		b, _ := ubench.ByName(name)
		prog, err := b.Program(ubench.Options{})
		if err != nil {
			t.Fatal(err)
		}
		listing, err := isa.DisassembleProgram(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(listing) == 0 {
			t.Fatalf("%s: empty listing", name)
		}
	}
	b, _ := ubench.ByName("CS1")
	prog, _ := b.Program(ubench.Options{})
	listing, _ := isa.DisassembleProgram(prog)
	if !strings.Contains(listing, "br x") {
		t.Error("CS1 listing lacks its indirect branch")
	}
}

// TestAblationRacingBeatsNoElimination verifies the design-choice ablation
// from DESIGN.md: with elimination disabled, the same budget explores
// fewer configurations and lands on a worse result (or at best equal).
func TestAblationRacingBeatsNoElimination(t *testing.T) {
	plat, err := Firefly()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureSuite(plat.A53, BenchOptions{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	eval := &validate.Evaluator{Base: PublicA53(), Ms: ms}
	space, err := SpaceFor(InOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) float64 {
		tu, err := irace.New(space, eval, irace.Options{
			Budget: 700, Seed: 5, DisableElimination: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.BestCost
	}
	with := run(false)
	without := run(true)
	t.Logf("ablation: racing %.3f vs no-elimination %.3f", with, without)
	if with > without*1.5 {
		t.Errorf("racing (%.3f) much worse than no-elimination (%.3f)", with, without)
	}
}
