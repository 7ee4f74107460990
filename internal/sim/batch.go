package sim

import (
	"fmt"

	"racesim/internal/core"
	"racesim/internal/trace"
)

// Behaviors returns the memoized behavior table for a decoded trace,
// compiling it on first use. The table is immutable and share-safe. It is
// memoized on d itself (see trace.Decoded.Derived), so it is collected
// together with the decode it was compiled from.
func Behaviors(d *trace.Decoded) []core.Behavior {
	return d.Derived(compileBehaviors).([]core.Behavior)
}

func compileBehaviors(d *trace.Decoded) any { return core.CompileBehaviors(d.Insts) }

// RunBatch replays one decoded trace under every configuration in a
// single walk over the columns, stepping a vector of per-config lanes in
// lockstep, and returns results aligned with configs. Lanes are fully
// independent, so out[i] is exactly what configs[i].RunDecoded(d) returns
// — batching changes throughput, never results. Configs may mix core
// kinds (each kind walks once); every config must share d's decoder
// variant. Traces that declare WarmData disable the zero-fill page
// optimization per lane, as in the sequential path.
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
	behav := Behaviors(d)
	out := make([]core.Result, len(configs))
	if err := replayKind(InOrder, nInOrder, configs, Config.inOrder, core.ReplayInOrder, d, behav, out); err != nil {
		return nil, err
	}
	if err := replayKind(OutOfOrder, len(configs)-nInOrder, configs, Config.ooo, core.ReplayOoO, d, behav, out); err != nil {
		return nil, err
	}
	return out, nil
}

// replayKind replays the n configurations of one core kind through that
// kind's lanes (conv and replay are the kind's config conversion and core
// entry point) and stores their results in their configs' slots of out.
func replayKind[C any](kind CoreKind, n int, configs []Config, conv func(Config) C,
	replay func([]C, *trace.Decoded, []core.Behavior, []core.Result) error,
	d *trace.Decoded, behav []core.Behavior, out []core.Result) error {
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
		return replay(cfgs, d, behav, out)
	}
	res := make([]core.Result, n)
	if err := replay(cfgs, d, behav, res); err != nil {
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
