package sim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"unsafe"
)

// leaf is one field of Config as the canonical encoding sees it: its byte
// offset in the struct, nested structs flattened, and its kind.
type leaf struct {
	off  uintptr
	kind reflect.Kind
}

// leaves is Config's plan: every leaf in declaration order, nested structs
// depth-first, computed once from the type. Canonical, Active, the
// fingerprint and each tunable's Get and Set read and write fields through
// it, so no call walks the type by reflection. A field of a kind the
// encoding cannot write panics here, when the package loads, rather than
// letting configurations share a key.
var leaves = flatten(reflect.TypeFor[Config](), 0, nil)

func flatten(t reflect.Type, base uintptr, out []leaf) []leaf {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = flatten(f.Type, base+f.Offset, out)
		}
	case reflect.Int, reflect.String, reflect.Bool:
		out = append(out, leaf{off: base, kind: t.Kind()})
	default:
		panic(fmt.Sprintf("sim: fingerprint: cannot encode a %s field", t.Kind()))
	}
	return out
}

func (l *leaf) ptr(c *Config) unsafe.Pointer { return unsafe.Add(unsafe.Pointer(c), l.off) }

// int reads an int leaf, or a bool leaf as 0 or 1.
func (l *leaf) int(c *Config) int {
	if l.kind == reflect.Bool {
		if *(*bool)(l.ptr(c)) {
			return 1
		}
		return 0
	}
	return *(*int)(l.ptr(c))
}

// setInt writes an int leaf, or a bool leaf from 0 or 1.
func (l *leaf) setInt(c *Config, v int) {
	if l.kind == reflect.Bool {
		*(*bool)(l.ptr(c)) = v != 0
	} else {
		*(*int)(l.ptr(c)) = v
	}
}

// str reads a string leaf, or a bool leaf as "true" or "false" (the form
// ParamDef values take).
func (l *leaf) str(c *Config) string {
	if l.kind == reflect.Bool {
		return strconv.FormatBool(*(*bool)(l.ptr(c)))
	}
	return *(*string)(l.ptr(c))
}

// appendLeaves appends c's leaves in declaration order: integers as
// varints, strings length-prefixed, bools as one byte. The order is fixed
// and every leaf self-delimiting, so equal encodings mean equal values.
func appendLeaves(b []byte, c *Config) []byte {
	for i := range leaves {
		l := &leaves[i]
		switch p := l.ptr(c); l.kind {
		case reflect.Int:
			b = binary.AppendVarint(b, int64(*(*int)(p)))
		case reflect.String:
			s := *(*string)(p)
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		case reflect.Bool:
			x := byte(0)
			if *(*bool)(p) {
				x = 1
			}
			b = append(b, x)
		}
	}
	return b
}
