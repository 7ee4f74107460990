package sim

import (
	"racesim/internal/core"
	"racesim/internal/trace"
)

// TapeStats returns the counters of d's tape memo.
func TapeStats(d *trace.Decoded) core.TapeStats { return derivedOf(d).tapes.Stats() }

// DerivedOf returns what sim attaches to d: its behavior table, class
// histogram and tape memo, in one object that lives as long as d does.
func DerivedOf(d *trace.Decoded) any { return derivedOf(d) }
