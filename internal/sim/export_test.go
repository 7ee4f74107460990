package sim

import (
	"reflect"
	"testing"

	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/trace"
)

// TapeStats returns the counters of d's tape memo.
func TapeStats(d *trace.Decoded) core.TapeStats { return derivedOf(d).tapes.Stats() }

// TapeKey returns the key cfg's decision tape is shared under.
func TapeKey(cfg Config) cache.HierarchyConfig { return tapeKey(cfg) }

// DerivedOf returns what sim attaches to d: its behavior table, class
// histogram and tape memo, in one object that lives as long as d does.
func DerivedOf(d *trace.Decoded) any { return derivedOf(d) }

// SetFields maps each tunable of kind to the Go field path its Set writes,
// found by diffing a copy of the kind's preset (fields_test.go).
func SetFields(t testing.TB, kind core.Kind) map[string]string { return setFields(t, kind) }

// ChangedFields returns the Go field paths of the leaves in which a and b
// differ (fields_test.go).
func ChangedFields(a, b *Config) []string { return changedFields(a, b) }

// FieldAt returns c's field at a Go field path.
func FieldAt(c *Config, path string) reflect.Value { return fieldAt(c, path) }
