package sim

import (
	"sync"

	"racesim/internal/core"
	"racesim/internal/isa"
	"racesim/internal/trace"
)

// derived is what sim attaches to a decoded trace (trace.Decoded.Derived):
// the behavior table compiled from it, its class histogram under that
// table, the memo of the memory hierarchy's decision tapes over it, and
// its read profile (ProfileOf), computed on first use. They live on the
// decode itself, so they are shared by the same callers and collected
// together with it.
type derived struct {
	behav   []core.Behavior
	classes [isa.NumClasses]uint64
	tapes   core.TapeMemo

	profileOnce sync.Once
	profile     *Profile
}

func deriveFrom(d *trace.Decoded) any {
	behav := core.CompileBehaviors(d.Insts)
	return &derived{behav: behav, classes: core.ClassHistogram(d.IDs, behav)}
}

func derivedOf(d *trace.Decoded) *derived { return d.Derived(deriveFrom).(*derived) }

// Behaviors returns the memoized behavior table for a decoded trace,
// compiling it on first use. The table is immutable and share-safe.
func Behaviors(d *trace.Decoded) []core.Behavior { return derivedOf(d).behav }

// RunBatch replays one decoded trace under every configuration, one after
// the other, and returns results aligned with configs: out[i] is exactly
// what configs[i].RunDecoded(d) returns. It is the one replay entry point:
// every configuration shares d's behavior table, class histogram and tape
// memo, and each replay's memory hierarchy simulates, records or replays
// its decisions as the memo finds best for the tape key (tapeKey) of its
// effective configuration (core.TapeMemo) — the results are the same
// either way. Configs may mix core kinds; every config must share d's
// decoder variant. Traces that declare WarmData disable the zero-fill page
// optimization, which only exists for never-written pages.
func RunBatch(configs []Config, d *trace.Decoded) ([]core.Result, error) {
	if len(configs) == 0 {
		return nil, nil
	}
	dv := derivedOf(d)
	out := make([]core.Result, len(configs))
	for i, c := range configs {
		if d.WarmData {
			c.Mem.ZeroFillOpt = false
		}
		var err error
		out[i], err = core.Replay(core.Config(c), d, dv.behav, &dv.classes, &dv.tapes, tapeKey(c))
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
