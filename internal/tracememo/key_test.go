package tracememo

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// differsPerField checks that setting any one field of the struct type of
// zero changes key — and fails on a field whose kind it cannot set, so a
// field added to an options struct either reaches the memo key or stops
// this test until someone decides how it should.
func differsPerField(t *testing.T, zero any, key func(v any) string) {
	t.Helper()
	typ := reflect.TypeOf(zero)
	base := key(zero)
	for i := 0; i < typ.NumField(); i++ {
		v := reflect.New(typ).Elem()
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(7)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(0.25)
		case reflect.String:
			f.SetString("x")
		default:
			t.Fatalf("%s.%s is a %s: Key renders it by address or not at all; decide how it enters the memo key",
				typ, typ.Field(i).Name, f.Kind())
		}
		if key(v.Interface()) == base {
			t.Errorf("%s.%s does not reach the memo key: two different generations would share one trace",
				typ, typ.Field(i).Name)
		}
	}
}

// TestKeysCoverEveryOptionField: the run job used to key a micro-benchmark
// trace by scale alone and a workload trace by events and seed alone, which
// was harmless only while nothing sharing the memo set InitArrays or
// WSDivisor. Every field of both Options structs (and of a workload
// profile, which callers may build themselves) must move the key.
func TestKeysCoverEveryOptionField(t *testing.T) {
	b, _ := ubench.ByName("MD")
	differsPerField(t, ubench.Options{}, func(v any) string {
		return ubenchKey(b, v.(ubench.Options))
	})
	p := workload.Profiles()[0]
	differsPerField(t, workload.Options{}, func(v any) string {
		return workloadKey(p, v.(workload.Options))
	})
	differsPerField(t, workload.Profile{}, func(v any) string {
		return workloadKey(v.(workload.Profile), workload.Options{})
	})
	other, _ := ubench.ByName("MC")
	if ubenchKey(b, ubench.Options{}) == ubenchKey(other, ubench.Options{}) {
		t.Error("two benchmarks share a key")
	}
	if ubenchKey(b, ubench.Options{}) == workloadKey(workload.Profile{Name: b.Name}, workload.Options{}) {
		t.Error("a benchmark and a workload of one name share a key")
	}
}

// TestHelpersGenerateOncePerOptions: the raw and the initialized variant of
// a benchmark are different traces under different keys, each generated
// once; likewise two working-set divisors of one workload.
func TestHelpersGenerateOncePerOptions(t *testing.T) {
	m := New(0, 0)
	b, _ := ubench.ByName("MIM") // reads uninitialized memory: InitArrays changes the program
	raw, err := m.Ubench(b, ubench.Options{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	init, err := m.Ubench(b, ubench.Options{Scale: 0.001, InitArrays: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw == init || raw.Digest() == init.Digest() {
		t.Error("InitArrays variant was served the raw trace")
	}
	if again, _ := m.Ubench(b, ubench.Options{Scale: 0.001}); again != raw {
		t.Error("repeat request generated a second trace")
	}
	p := workload.Profiles()[0]
	wide, err := m.Workload(p, workload.Options{Events: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := m.Workload(p, workload.Options{Events: 500, Seed: 1, WSDivisor: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if wide == narrow || wide.Digest() == narrow.Digest() {
		t.Error("WSDivisor variant was served the default trace")
	}
	if again, _ := m.Workload(p, workload.Options{Events: 500, Seed: 1}); again != wide {
		t.Error("repeat request synthesized a second trace")
	}
	if st := m.Stats(); st.Misses != 4 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 4 misses, 2 hits", st)
	}
	// A nil memo generates, every time.
	var none *Memo
	a, err := none.Ubench(b, ubench.Options{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if a == raw || a.Digest() != raw.Digest() {
		t.Error("nil memo should generate an equal, separate trace")
	}
}

// TestUbenchZeroScaleIsTheDefaultKey: a scale of zero or below means
// ubench.DefaultScale, and the memo resolves it before it keys, so the
// three spellings share one trace, generated once.
func TestUbenchZeroScaleIsTheDefaultKey(t *testing.T) {
	b := ubench.Suite()[0]
	for _, c := range ubench.Suite() {
		if c.PaperInstructions < b.PaperInstructions {
			b = c
		}
	}
	m := New(0, 0)
	var first *trace.Trace
	for _, scale := range []float64{0, -1, ubench.DefaultScale} {
		tr, err := m.Ubench(b, ubench.Options{Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = tr
		} else if tr != first {
			t.Errorf("scale %v: %s got another trace than scale 0's", scale, b.Name)
		}
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss, 2 hits", st)
	}
}

// TestKeysSpellLikeFmt: Key spells a parameter as fmt's %+v does, so the
// keys are the ones fmt built — and the identities a snapshot remembers
// under them keep answering. Sampled options, negative and exponent-sized
// numbers included, against fmt as the oracle.
func TestKeysSpellLikeFmt(t *testing.T) {
	fmtKey := func(family string, params ...any) string {
		var b strings.Builder
		b.WriteString(family)
		for _, p := range params {
			fmt.Fprintf(&b, "\x00%+v", p)
		}
		return b.String()
	}
	rng := rand.New(rand.NewSource(60))
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64()
		case 2:
			return -rng.ExpFloat64() * 1e12
		}
		return rng.NormFloat64() * 1e-7
	}
	b, _ := ubench.ByName("MD")
	for range 500 {
		uo := ubench.Options{Scale: float(), InitArrays: rng.Intn(2) == 0}
		if got, want := ubenchKey(b, uo), fmtKey("ubench", b.Name, b.PaperInstructions, uo); got != want {
			t.Fatalf("ubench key %q, fmt spells it %q", got, want)
		}
		p := workload.Profiles()[rng.Intn(len(workload.Profiles()))]
		p.Line, p.WorkingSetKB, p.CodeBlocks = -rng.Int(), rng.Int(), rng.Intn(100)
		p.PaperInstructions = rng.Uint64()
		p.StreamFrac, p.DepProb, p.DivFrac = float(), float(), float()
		wo := workload.Options{Events: rng.Int(), Seed: rng.Int63() - rng.Int63(), WSDivisor: -rng.Intn(64)}
		if got, want := workloadKey(p, wo), fmtKey("workload", p, wo); got != want {
			t.Fatalf("workload key %q, fmt spells it %q", got, want)
		}
	}
}
