package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"racesim/internal/branch"
	"racesim/internal/core"
	"racesim/internal/irace"
)

var (
	sumSink [sha256.Size]byte
	hexSink string
)

// BenchmarkFingerprint is the config half of every simulation-cache key:
// sum is the canonical form, its encoding through the compiled plan and the
// SHA-256 over it;
// hex adds the 64-character string Fingerprint returns, its one
// allocation. Regenerate BENCH_cache.json's rows with:
// go test -run '^$' -bench Fingerprint -benchtime 2s -benchmem ./internal/sim/
func BenchmarkFingerprint(b *testing.B) {
	cfg := PublicA72()
	b.Run("sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sumSink = cfg.FingerprintSum()
		}
	})
	b.Run("hex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hexSink = cfg.Fingerprint()
		}
	})
}

// TestFingerprintAllocations: a fingerprint allocates its returned string
// and nothing else — no encoder state, no buffer, no canonical copy.
func TestFingerprintAllocations(t *testing.T) {
	for _, cfg := range []Config{PublicA53(), PublicA72()} {
		if n := testing.AllocsPerRun(100, func() { sumSink = cfg.FingerprintSum() }); n != 0 {
			t.Errorf("%s: the canonical encoding and hash allocate %.0f objects, want 0", cfg.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { hexSink = cfg.Fingerprint() }); n != 1 {
			t.Errorf("%s: Fingerprint allocates %.0f objects, want 1 (its result)", cfg.Name, n)
		}
	}
}

// appendFields is the reflective encoding the compiled plan replaced: v's
// leaves in declaration order, integers as varints, strings
// length-prefixed, bools as one byte, by a walk of reflect.Values. It stays
// here as the oracle appendLeaves is checked against.
func appendFields(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendFields(b, v.Field(i))
		}
	case reflect.Int:
		b = binary.AppendVarint(b, v.Int())
	case reflect.String:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		b = append(b, v.String()...)
	case reflect.Bool:
		x := byte(0)
		if v.Bool() {
			x = 1
		}
		b = append(b, x)
	default:
		panic(fmt.Sprintf("cannot encode a %s field", v.Kind()))
	}
	return b
}

// reflectCanonical is Canonical as the parameter table states it, with
// fields read and written by reflection at the paths fields maps each
// tunable to (setFields): Name cleared, and every parameter whose
// condition's parent holds none of its values (or holds one, under Not)
// set to its first value. It shares no leaf, Get or Set with Canonical.
func reflectCanonical(t testing.TB, cfg Config, fields map[string]string) Config {
	canon := cfg
	canon.Name = ""
	for _, d := range Params(cfg.Kind) {
		if d.When == nil {
			continue
		}
		active := false
		if d.When.Parent != "" {
			parent := fmt.Sprint(fieldAt(&cfg, fields[d.When.Parent]).Interface())
			active = slices.Contains(d.When.Values, parent) != d.When.Not
		}
		if active {
			continue
		}
		switch f := fieldAt(&canon, fields[d.Name]); f.Kind() {
		case reflect.Int:
			n, err := strconv.Atoi(d.Values[0])
			if err != nil {
				t.Fatal(err)
			}
			f.SetInt(int64(n))
		case reflect.Bool:
			f.SetBool(d.Values[0] == "true")
		default:
			t.Fatalf("param %s: a conditional %s field", d.Name, f.Kind())
		}
	}
	return canon
}

// sampledConfigs returns n valid configurations of kind drawn uniformly
// from its tuning space over its public preset.
func sampledConfigs(t testing.TB, base Config, n int, rng *rand.Rand) []Config {
	space, err := Space(base.Kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []Config
	for len(out) < n {
		if cfg, err := Apply(base, irace.SampleUniform(space, rng)); err == nil {
			out = append(out, cfg)
		}
	}
	return out
}

// TestFingerprintPlanMatchesReflection: on both presets and on 5 000
// sampled valid configurations of each kind, Canonical equals the
// reflective oracle, the plan encodes the canonical form to the bytes the
// reflective walk writes, and FingerprintSum is SHA-256 over the epoch and
// those bytes — so no cache key moves.
func TestFingerprintPlanMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	fields := map[core.Kind]map[string]string{
		core.InOrder:    setFields(t, core.InOrder),
		core.OutOfOrder: setFields(t, core.OutOfOrder),
	}
	var cfgs []Config
	for _, base := range []Config{PublicA53(), PublicA72()} {
		cfgs = append(append(cfgs, base), sampledConfigs(t, base, 5000, rng)...)
	}
	for n, cfg := range cfgs {
		canon := Canonical(cfg)
		if want := reflectCanonical(t, cfg, fields[cfg.Kind]); canon != want {
			t.Fatalf("config %d (%s): Canonical = %+v, the oracle %+v", n, cfg.Kind, canon, want)
		}
		epoch := binary.AppendUvarint(nil, core.Epoch)
		want := appendFields(slices.Clone(epoch), reflect.ValueOf(&canon).Elem())
		if got := appendLeaves(epoch, &canon); !bytes.Equal(got, want) {
			t.Fatalf("config %d (%s): the plan encodes\n%x\nthe reflective walk\n%x", n, cfg.Kind, got, want)
		}
		if cfg.FingerprintSum() != sha256.Sum256(want) {
			t.Fatalf("config %d (%s): FingerprintSum is not SHA-256 over the epoch and the encoding", n, cfg.Kind)
		}
	}
}

// TestPlanRejectsUnencodableField: a leaf of a kind the encoding cannot
// write panics when the plan is built.
func TestPlanRejectsUnencodableField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a float64 field was planned")
		}
	}()
	flatten(reflect.TypeFor[struct {
		A int
		B float64
	}](), 0, nil)
}

// TestLeafOfRejectsNonLeaf: a parameter's getter that does not point at a
// leaf of its own kind panics when the table is built — here one that
// returns a nested struct (at the offset of its first, string leaf) and one
// that reinterprets a string field as an int.
func TestLeafOfRejectsNonLeaf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"struct", func() { leafOf(func(c *Config) *branch.Config { return &c.Branch }) }},
		{"kind", func() { leafOf(func(c *Config) *int { return (*int)(unsafe.Pointer(&c.Branch.Kind)) }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("the getter was given a leaf")
				}
			}()
			tc.build()
		})
	}
}
