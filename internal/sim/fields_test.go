package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"racesim/internal/core"
)

// The helpers here see a Config the way a reader of its Go declaration
// does: fields by their path (Mem.L1D.Prefetch.Kind), found by a walk of
// reflect.Values. They share nothing with the compiled plan (plan.go), so
// the tests that use them check the plan, the parameter table and Set
// against the type itself.

// presetOf returns the public preset of a core kind.
func presetOf(kind core.Kind) Config {
	if kind == core.InOrder {
		return PublicA53()
	}
	return PublicA72()
}

// changedFields returns the paths of the leaves in which a and b differ,
// in declaration order.
func changedFields(a, b *Config) []string {
	var out []string
	var walk func(x, y reflect.Value, path string)
	walk = func(x, y reflect.Value, path string) {
		if x.Kind() != reflect.Struct {
			if !x.Equal(y) {
				out = append(out, path)
			}
			return
		}
		for i := range x.NumField() {
			walk(x.Field(i), y.Field(i), strings.TrimPrefix(path+"."+x.Type().Field(i).Name, "."))
		}
	}
	walk(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), "")
	return out
}

// setField returns the path of the field d's Set writes: every listed value
// is set on a copy of base and the copy diffed against base. It fails the
// test unless each Set changes at most one leaf and, together, they change
// exactly one.
func setField(t testing.TB, d *ParamDef, base Config) string {
	t.Helper()
	var fields []string
	for _, v := range d.Values {
		c := base
		if err := d.Set(&c, v); err != nil {
			t.Fatalf("param %s: Set(%q): %v", d.Name, v, err)
		}
		changed := changedFields(&base, &c)
		if len(changed) > 1 {
			t.Fatalf("param %s: Set(%q) writes %d fields %v, want one", d.Name, v, len(changed), changed)
		}
		for _, f := range changed {
			if !slices.Contains(fields, f) {
				fields = append(fields, f)
			}
		}
	}
	if len(fields) != 1 {
		t.Fatalf("param %s: its listed values write the fields %v, want exactly one", d.Name, fields)
	}
	return fields[0]
}

// setFields maps each tunable of kind to the path of the field its Set
// writes on the kind's preset.
func setFields(t testing.TB, kind core.Kind) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, d := range Params(kind) {
		out[d.Name] = setField(t, &d, presetOf(kind))
	}
	return out
}

// fieldAt returns c's field at path, settable.
func fieldAt(c *Config, path string) reflect.Value {
	v := reflect.ValueOf(c).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}
