package core

import (
	"sync"

	"racesim/internal/cache"
)

// tapeMemoKeys is the number of tape keys a TapeMemo remembers, with or
// without a tape. It bounds what a decode can pin: at most this many
// tapes, each about a tenth of the decode's own size (docs/performance.md
// has the measurements).
const tapeMemoKeys = 8

// TapeMemo holds the decision tapes (cache.Tape) of one decoded trace: the
// memory hierarchy's decisions over that trace under the few keys replayed
// most recently. The caller names each replay's key, a
// cache.HierarchyConfig, and guarantees that configurations sharing a key
// take the same decisions (sim fixes the timing-only tunables). Both core
// models issue Fetch, Probe+Load and Store in program order, so the access
// sequence a hierarchy sees is fixed by the trace and the L1I line size —
// which is part of the key — and every later simulation of the pair,
// whatever its latencies, ports, DRAM timing, core, branch unit or front
// end, can replay the tape instead of simulating the hierarchy's state
// again.
//
// Whether that pays is observed, not configured. A perturbation search
// re-simulates a trace under hundreds of timing-only variants of a few
// keys; a tuning race never simulates the same key twice, and a tape
// recorded for it is garbage nobody reads. So the first sighting of a key
// is only noted and runs live, the second records, and later ones replay.
// The memo keeps the tapeMemoKeys most recently sighted keys; a tape
// evicted while lanes are still playing it stays valid for them (tapes are
// immutable) and is collected when the last one finishes.
//
// All replays through one memo must be of the decode it belongs to (sim
// keeps it beside the behavior table, on the decode itself, so the two are
// collected together). The zero value is an empty memo; a nil *TapeMemo
// makes every replay live.
type TapeMemo struct {
	mu    sync.Mutex
	tick  uint64
	ents  [tapeMemoKeys]tapeEntry
	stats TapeStats
}

// TapeStats counts what a memo answered: how many replays it let run live
// (first sightings), told to record, and served a tape.
type TapeStats struct {
	Live, Recorded, Replayed uint64
	// Tapes is the number of tapes the memo holds now.
	Tapes int
}

// Stats returns the memo's counters.
func (m *TapeMemo) Stats() TapeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	for i := range m.ents {
		if m.ents[i].tape != nil {
			st.Tapes++
		}
	}
	return st
}

type tapeEntry struct {
	key  cache.HierarchyConfig
	used uint64      // tick of the latest sighting; 0: empty slot
	tape *cache.Tape // nil until a recording of key is published
}

// sight notes one more replay under key. It returns the key's tape when
// there is one, and otherwise whether this replay should record it: true
// from the second sighting on (concurrent replays may each record; the
// first to publish wins).
func (m *TapeMemo) sight(key *cache.HierarchyConfig) (tape *cache.Tape, record bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	lru := &m.ents[0]
	for i := range m.ents {
		e := &m.ents[i]
		if e.used != 0 && e.key == *key {
			e.used = m.tick
			if e.tape == nil {
				m.stats.Recorded++
			} else {
				m.stats.Replayed++
			}
			return e.tape, e.tape == nil
		}
		if e.used < lru.used {
			lru = e
		}
	}
	*lru = tapeEntry{key: *key, used: m.tick}
	m.stats.Live++
	return nil, false
}

// publish stores the tape recorded under key, unless the key already has
// one or has been evicted since it was sighted.
func (m *TapeMemo) publish(key *cache.HierarchyConfig, tape *cache.Tape) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.ents {
		if e := &m.ents[i]; e.used != 0 && e.key == *key {
			if e.tape == nil {
				e.tape = tape
			}
			return
		}
	}
}

// reset prepares hier for one replay of the memo's decode under mem, whose
// tape key is key: as a replay of the key's tape when the memo has one, as
// a recording when it wants one, live otherwise.
func (m *TapeMemo) reset(hier *cache.Hierarchy, mem cache.HierarchyConfig, key *cache.HierarchyConfig) error {
	if m == nil {
		return hier.Reset(mem)
	}
	tape, record := m.sight(key)
	switch {
	case tape != nil:
		return hier.Replay(mem, tape)
	case record:
		return hier.Record(mem)
	}
	return hier.Reset(mem)
}

// done closes the replay reset began, once the whole trace has been
// walked: a tape that was not consumed exactly fails the simulation, a
// finished recording is published under key, the one reset was given.
func (m *TapeMemo) done(hier *cache.Hierarchy, key *cache.HierarchyConfig) error {
	if m == nil {
		return nil
	}
	if err := hier.ReplayErr(); err != nil {
		return err
	}
	if tape := hier.Tape(); tape != nil {
		m.publish(key, tape)
	}
	return nil
}
