package core

import (
	"fmt"
	"strings"
	"testing"

	"racesim/internal/cache"
	"racesim/internal/trace"
)

// keyed returns the test hierarchy under a tape key of its own: the data
// TLB size shapes the hierarchy's decisions.
func keyed(i int) cache.HierarchyConfig {
	mem := testMem()
	mem.DTLBEntries = 8 + i
	return mem
}

// TestTapeMemoSecondSighting walks the memo's policy: the first sighting of
// a key is only noted, the second is told to record,
// sightings after a tape is published get it; the first publish wins; the
// memo keeps the tapeMemoKeys most recently sighted keys and drops a
// recording whose key was evicted while it ran.
func TestTapeMemoSecondSighting(t *testing.T) {
	var m TapeMemo
	k0 := keyed(0)
	if tape, rec := m.sight(&k0); tape != nil || rec {
		t.Fatalf("first sighting: tape %v, record %v; want a live run", tape, rec)
	}
	for i := 0; i < 2; i++ { // two lanes may record one key at once
		if tape, rec := m.sight(&k0); tape != nil || !rec {
			t.Fatalf("sighting %d before a tape exists: tape %v, record %v; want a recording", i+2, tape, rec)
		}
	}
	first, second := new(cache.Tape), new(cache.Tape)
	m.publish(&k0, first)
	m.publish(&k0, second)
	if tape, rec := m.sight(&k0); tape != first || rec {
		t.Fatalf("after two publishes: tape %p, record %v; want the first tape %p", tape, rec, first)
	}
	if st, want := m.Stats(), (TapeStats{Live: 1, Recorded: 2, Replayed: 1, Tapes: 1}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}

	// tapeMemoKeys-1 newer keys fit beside k0; one more evicts it, the least
	// recently sighted.
	for i := 1; i < tapeMemoKeys; i++ {
		k := keyed(i)
		m.sight(&k)
	}
	if tape, _ := m.sight(&k0); tape != first {
		t.Fatalf("k0 was evicted with only %d keys sighted", tapeMemoKeys)
	}
	k1 := keyed(1)
	m.sight(&k1) // a second sighting: its lane is now recording ...
	for i := tapeMemoKeys; i < 2*tapeMemoKeys; i++ {
		k := keyed(i)
		m.sight(&k)
	}
	m.publish(&k1, second) // ... and finishes after k1 was evicted
	if st := m.Stats(); st.Tapes != 0 {
		t.Errorf("%d tapes held after every key was evicted, want 0", st.Tapes)
	}
	if tape, rec := m.sight(&k0); tape != nil || rec {
		t.Error("an evicted key was not treated as a first sighting")
	}
}

// loadLoop is a loop whose body spans several instruction-cache lines and
// streams over an array: the hierarchy sees fetches, load hits and load
// misses, and how many fetches depends on the L1I line size.
func loadLoop(iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".equ BUF, 0x100000\nmovz x9, #%d\nla x1, BUF\nloop:\n", iters)
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, "ldrx x2, [x1, #%d]\n", i*24)
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&b, "addi x%d, x%d, #1\n", j+3, j+3)
		}
	}
	b.WriteString("addi x1, x1, #192\nsubi x9, x9, #1\ncbnz x9, loop\nhalt\n")
	return b.String()
}

// replayOne runs one in-order and one out-of-order replay of d with the
// given memos.
func replayOne(ino, ooo Config, d *trace.Decoded, inoTapes, oooTapes *TapeMemo) (Result, Result, error) {
	a, err := replay(ino, d, inoTapes)
	if err != nil {
		return Result{}, Result{}, err
	}
	b, err := replay(ooo, d, oooTapes)
	return a, b, err
}

// TestTapeDesyncFailsSimulation: a tape is only good for the trace and the
// fetch granularity it was recorded over. Replaying it over anything else
// must fail the simulation, not return numbers.
func TestTapeDesyncFailsSimulation(t *testing.T) {
	tr := record(t, loadLoop(600))
	d := tr.Decoded(false)
	ino, ooo := inorderCfg(), oooCfg()
	wantIno, wantOoO := run(t, ino, tr), run(t, ooo, tr)

	var inoTapes, oooTapes TapeMemo
	for sighting := 1; sighting <= 4; sighting++ {
		a, b, err := replayOne(ino, ooo, d, &inoTapes, &oooTapes)
		if err != nil {
			t.Fatalf("sighting %d: %v", sighting, err)
		}
		if a != wantIno || b != wantOoO {
			t.Fatalf("sighting %d differs from the live replay", sighting)
		}
	}
	if st, want := inoTapes.Stats(), (TapeStats{Live: 1, Recorded: 1, Replayed: 2, Tapes: 1}); st != want {
		t.Fatalf("in-order memo stats %+v, want %+v", st, want)
	}

	// Another trace through this trace's memo.
	other := record(t, chainALU(300)).Decoded(false)
	if _, _, err := replayOne(ino, ooo, other, &inoTapes, new(TapeMemo)); err == nil {
		t.Error("in-order: a tape replayed over another trace returned a result")
	} else if !strings.Contains(err.Error(), "tape") {
		t.Errorf("in-order: error does not name the tape: %v", err)
	}
	if _, _, err := replayOne(ino, ooo, other, new(TapeMemo), &oooTapes); err == nil {
		t.Error("out-of-order: a tape replayed over another trace returned a result")
	}

	// The same trace fetched in lines twice as long: plant the tape under
	// the key such a configuration has, which the memo itself never would.
	wide := ino
	wide.Mem.L1I.LineSize *= 2
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	key, wideKey := ino.Mem, wide.Mem
	tape, _ := inoTapes.sight(&key)
	var planted TapeMemo
	planted.sight(&wideKey)
	planted.publish(&wideKey, tape)
	if _, err := replay(wide, d, &planted); err == nil {
		t.Error("a tape replayed under another L1I line size returned a result")
	}
}

// TestEvictedTapeStillPlays: a replay that began on a tape keeps it when
// concurrent replays under other keys evict it from the memo before the
// walk is over. The tape is immutable and the lane holds it, so the lane's
// result is still a live replay's.
func TestEvictedTapeStillPlays(t *testing.T) {
	tr := record(t, strideMisses())
	d := tr.Decoded(false)
	cfg := inorderCfg()
	want := run(t, cfg, tr)

	var tapes TapeMemo
	for i := 0; i < 2; i++ { // note, then record
		if _, err := replay(cfg, d, &tapes); err != nil {
			t.Fatal(err)
		}
	}
	if st := tapes.Stats(); st.Tapes != 1 {
		t.Fatalf("%d tapes after the second sighting, want 1", st.Tapes)
	}
	// Replay's own steps, with the other replays' sightings placed
	// between its reset and its walk.
	ln := new(lane)
	if err := ln.reset(cfg, &tapes, &cfg.Mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tapeMemoKeys; i++ {
		key := keyed(i)
		tapes.sight(&key)
	}
	if st := tapes.Stats(); st.Replayed != 1 || st.Tapes != 0 {
		t.Fatalf("stats %+v: want the lane to be replaying the tape and the other sightings to have evicted it", st)
	}
	behav := CompileBehaviors(d.Insts)
	ln.walkInOrder(d, behav)
	if err := tapes.done(ln.hier, &cfg.Mem); err != nil {
		t.Fatal(err)
	}
	classes := ClassHistogram(d.IDs, behav)
	if got := ln.finish(uint64(len(d.IDs)), &classes); got != want {
		t.Errorf("a lane whose tape was evicted mid-play differs from a live replay\n got  %+v\n want %+v", got, want)
	}
}
