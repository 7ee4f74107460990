package sim

import (
	"fmt"

	"racesim/internal/core"
	"racesim/internal/isa"
	"racesim/internal/trace"
)

// derived is what sim attaches to a decoded trace (trace.Decoded.Derived):
// the behavior table compiled from it, its class histogram under that
// table, and the memo of the memory hierarchy's decision tapes over it.
// They live on the decode itself, so they are shared by the same callers
// and collected together with it.
type derived struct {
	behav   []core.Behavior
	classes [isa.NumClasses]uint64
	tapes   core.TapeMemo
}

func deriveFrom(d *trace.Decoded) any {
	behav := core.CompileBehaviors(d.Insts)
	return &derived{behav: behav, classes: core.ClassHistogram(d.IDs, behav)}
}

func derivedOf(d *trace.Decoded) *derived { return d.Derived(deriveFrom).(*derived) }

// Behaviors returns the memoized behavior table for a decoded trace,
// compiling it on first use. The table is immutable and share-safe.
func Behaviors(d *trace.Decoded) []core.Behavior { return derivedOf(d).behav }

// RunBatch replays one decoded trace under every configuration in a
// single walk over the columns, stepping a vector of per-config lanes in
// lockstep, and returns results aligned with configs. Lanes are fully
// independent, so out[i] is exactly what configs[i].RunDecoded(d) returns
// — batching changes throughput, never results. Configs may mix core
// kinds (each kind walks once); every config must share d's decoder
// variant. Traces that declare WarmData disable the zero-fill page
// optimization per lane, as in the sequential path. Each lane's memory
// hierarchy simulates, records or replays its decisions as d's tape memo
// finds best for the lane's effective configuration (core.TapeMemo); the
// results are the same either way.
func RunBatch(configs []Config, d *trace.Decoded) ([]core.Result, error) {
	if len(configs) == 0 {
		return nil, nil
	}
	nInOrder := 0
	for _, c := range configs {
		switch c.Kind {
		case InOrder:
			nInOrder++
		case OutOfOrder:
		default:
			return nil, fmt.Errorf("sim: unknown core kind %q", c.Kind)
		}
	}
	dv := derivedOf(d)
	out := make([]core.Result, len(configs))
	if err := replayKind(InOrder, nInOrder, configs, Config.inOrder, core.ReplayInOrder, d, dv, out); err != nil {
		return nil, err
	}
	if err := replayKind(OutOfOrder, len(configs)-nInOrder, configs, Config.ooo, core.ReplayOoO, d, dv, out); err != nil {
		return nil, err
	}
	return out, nil
}

// replayKind replays the n configurations of one core kind through that
// kind's lanes (conv and replay are the kind's config conversion and core
// entry point) and stores their results in their configs' slots of out.
func replayKind[C any](kind CoreKind, n int, configs []Config, conv func(Config) C,
	replay func([]C, *trace.Decoded, []core.Behavior, *[isa.NumClasses]uint64, *core.TapeMemo, []core.Result) error,
	d *trace.Decoded, dv *derived, out []core.Result) error {
	if n == 0 {
		return nil
	}
	cfgs := make([]C, 0, n)
	for _, c := range configs {
		if c.Kind != kind {
			continue
		}
		if d.WarmData {
			c.Mem.ZeroFillOpt = false
		}
		cfgs = append(cfgs, conv(c))
	}
	if n == len(configs) {
		return replay(cfgs, d, dv.behav, &dv.classes, &dv.tapes, out)
	}
	res := make([]core.Result, n)
	if err := replay(cfgs, d, dv.behav, &dv.classes, &dv.tapes, res); err != nil {
		return err
	}
	j := 0
	for i, c := range configs {
		if c.Kind == kind {
			out[i] = res[j]
			j++
		}
	}
	return nil
}

// RunBatchTrace is RunBatch over a raw trace: all configs must share a
// decoder variant (they are replayed against one decode).
func RunBatchTrace(configs []Config, tr *trace.Trace) ([]core.Result, error) {
	if len(configs) == 0 {
		return nil, nil
	}
	depBug := configs[0].DecoderDepBug
	for _, c := range configs[1:] {
		if c.DecoderDepBug != depBug {
			return nil, fmt.Errorf("sim: batch mixes decoder variants (DepBug true and false)")
		}
	}
	return RunBatch(configs, tr.Decoded(depBug))
}
