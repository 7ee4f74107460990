package main

import (
	"sort"
	"time"

	"racesim/internal/telemetry"
)

// The traced run records spans from the benchmark's own files, around each
// public call into a layer, in the repository's one span format
// (telemetry.Span). Every function here accepts a nil *telemetry.Recorder:
// spans are then timed but land nowhere, which is how the untraced run
// shares code with the traced one.

// addSpan records a finished span that was measured some other way than a
// StartSpan/End pair (a unit's own Elapsed, the union of concurrent
// evaluator calls) under parent.
func addSpan(rec *telemetry.Recorder, parent telemetry.SpanContext, name string,
	start time.Time, dur time.Duration, attrs map[string]string) {
	rec.Add(telemetry.Span{
		Trace: parent.Trace, ID: telemetry.NewID(), Parent: parent.Span,
		Name: name, Start: start, DurationNS: dur.Nanoseconds(), Attrs: attrs,
	})
}

// interval is a half-open span of wall time in Unix nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of the intervals.
func covered(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its children cover (children are clipped to the parent and
// overlapping children counted once).
func selfTimes(spans []telemetry.Span) map[string]time.Duration {
	children := map[string][]interval{}
	byID := map[string]telemetry.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		p, ok := byID[sp.Parent]
		if !ok {
			continue
		}
		pLo, pHi := p.Start.UnixNano(), p.Start.UnixNano()+p.DurationNS
		lo, hi := sp.Start.UnixNano(), sp.Start.UnixNano()+sp.DurationNS
		if lo < pLo {
			lo = pLo
		}
		if hi > pHi {
			hi = pHi
		}
		if hi > lo {
			children[sp.Parent] = append(children[sp.Parent], interval{lo, hi})
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, sp := range spans {
		out[sp.ID] = time.Duration(sp.DurationNS - covered(children[sp.ID]))
	}
	return out
}

// spanSeconds sums the durations of the recorded spans with the given
// name (0 when there is none).
func spanSeconds(rec *telemetry.Recorder, name string) float64 {
	var total int64
	for _, sp := range rec.Spans() {
		if sp.Name == name {
			total += sp.DurationNS
		}
	}
	return time.Duration(total).Seconds()
}
