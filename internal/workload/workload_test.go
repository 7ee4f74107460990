package workload

import (
	"slices"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/isa"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

func TestProfilesMatchTable2(t *testing.T) {
	ps := Profiles()
	if len(ps) != 11 {
		t.Fatalf("%d profiles, Table II lists 11", len(ps))
	}
	counts := map[string]uint64{
		"mcf": 12_000_000_000, "povray": 2_450_000_000, "omnetpp": 10_800_000_000,
		"xalancbmk": 443_000_000, "deepsjeng": 14_900_000_000, "x264": 14_800_000_000,
		"nab": 14_200_000_000, "leela": 10_300_000_000, "imagick": 13_400_000_000,
		"gcc": 9_000_000_000, "xz": 10_800_000_000,
	}
	for _, p := range ps {
		want, ok := counts[p.Name]
		if !ok {
			t.Errorf("unexpected profile %s", p.Name)
			continue
		}
		if p.PaperInstructions != want {
			t.Errorf("%s: paper count %d, want %d", p.Name, p.PaperInstructions, want)
		}
	}
}

// TestGenerateRejectsNonPositiveLength: a length is the caller's to
// choose; a zero or negative one is an error, not a private default.
func TestGenerateRejectsNonPositiveLength(t *testing.T) {
	p, _ := ByName("mcf")
	for _, events := range []int{0, -1} {
		if tr, err := Generate(p, Options{Events: events, Seed: 1}); err == nil {
			t.Errorf("Events %d: generated %d instructions, want an error", events, tr.Len())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("mcf")
	a, err := Generate(p, Options{Events: 20_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, Options{Events: 20_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(eventsOf(t, a), eventsOf(t, b)) || a.Digest() != b.Digest() {
		t.Fatal("two generations differ")
	}
}

// eventsOf reads every event of tr through a cursor.
func eventsOf(t *testing.T, tr *trace.Trace) []trace.Event {
	t.Helper()
	c, err := trace.NewCursor(tr)
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		evs = append(evs, ev)
	}
	return evs
}

func TestGeneratedTracesAreWellFormed(t *testing.T) {
	var d isa.Decoder
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := Generate(p, Options{Events: 30_000})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != 30_000 {
				t.Fatalf("got %d events", tr.Len())
			}
			wordAt := map[uint64]uint32{}
			for _, ev := range eventsOf(t, tr) {
				in, err := d.Decode(ev.PC, ev.Word)
				if err != nil {
					t.Fatalf("invalid word at %#x: %v", ev.PC, err)
				}
				if w, seen := wordAt[ev.PC]; seen && w != ev.Word {
					t.Fatalf("PC %#x has two different words (self-modifying code?)", ev.PC)
				}
				wordAt[ev.PC] = ev.Word
				if in.Cls.IsMem() && ev.MemAddr == 0 {
					t.Fatal("memory op without address")
				}
				if in.Cls.IsBranch() && ev.Taken && ev.Target == 0 {
					t.Fatal("taken branch without target")
				}
			}
		})
	}
}

func TestProfilesShapeClassMix(t *testing.T) {
	frac := func(name string, classes ...isa.Class) float64 {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		tr, err := Generate(p, Options{Events: 40_000})
		if err != nil {
			t.Fatal(err)
		}
		mix := tr.ClassMix()
		n := 0
		for _, c := range classes {
			n += mix[c]
		}
		return float64(n) / float64(tr.Len())
	}
	if f := frac("imagick", isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv); f < 0.10 {
		t.Errorf("imagick FP fraction %.2f too low", f)
	}
	if f := frac("mcf", isa.ClassFPAdd, isa.ClassFPMul); f > 0.05 {
		t.Errorf("mcf FP fraction %.2f too high", f)
	}
	if f := frac("mcf", isa.ClassLoad); f < 0.2 {
		t.Errorf("mcf load fraction %.2f too low", f)
	}
	if f := frac("x264", isa.ClassSIMD); f < 0.05 {
		t.Errorf("x264 SIMD fraction %.2f too low", f)
	}
	if f := frac("xalancbmk", isa.ClassBranchInd); f < 0.002 {
		t.Errorf("xalancbmk indirect fraction %.4f too low", f)
	}
}

func TestWorkloadsRunOnModelsAndBoards(t *testing.T) {
	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mcf", "povray", "x264"} {
		p, _ := ByName(name)
		tr, err := Generate(p, Options{Events: 40_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.PublicA53().Run(tr)
		if err != nil {
			t.Fatalf("%s on public A53: %v", name, err)
		}
		if res.CPI() <= 0.3 || res.CPI() > 100 {
			t.Errorf("%s: implausible CPI %.2f", name, res.CPI())
		}
		c, err := plat.A72.Measure(tr)
		if err != nil {
			t.Fatalf("%s on board: %v", name, err)
		}
		if c.CPI <= 0.2 || c.CPI > 100 {
			t.Errorf("%s: implausible board CPI %.2f", name, c.CPI)
		}
	}
}

func TestMemoryBoundVsComputeBoundOrdering(t *testing.T) {
	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	cpi := func(name string) float64 {
		p, _ := ByName(name)
		tr, err := Generate(p, Options{Events: 60_000})
		if err != nil {
			t.Fatal(err)
		}
		c, err := plat.A53.Measure(tr)
		if err != nil {
			t.Fatal(err)
		}
		return c.CPI
	}
	if mcf, img := cpi("mcf"), cpi("imagick"); mcf <= img {
		t.Errorf("mcf CPI %.2f should exceed imagick %.2f (memory-bound vs compute)", mcf, img)
	}
}
