package trace

import (
	"fmt"
	"testing"

	"racesim/internal/asm"
	"racesim/internal/emu"
	"racesim/internal/isa"
)

// loopProgram assembles a register-only loop that retires exactly events
// instructions (events >= 4, even): it touches no memory, so recording it
// allocates the trace and nothing that grows with its length.
func loopProgram(t testing.TB, events int) *isa.Program {
	t.Helper()
	if events < 4 || events%2 != 0 {
		t.Fatalf("loopProgram(%d): want an even count >= 4", events)
	}
	// la expands to two instructions; each iteration retires subi + cbnz.
	p, err := asm.Assemble(fmt.Sprintf("la x28, %d\nloop:\nsubi x28, x28, #1\ncbnz x28, loop\nhalt\n", (events-2)/2))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recordByAppend is the recording Record used to do: append every retired
// instruction to a slice of events. It stays here as the reference.
func recordByAppend(prog *isa.Program, maxInst uint64) ([]Event, error) {
	m := emu.New(prog)
	var evs []Event
	err := m.Run(maxInst, func(in isa.Inst) {
		evs = append(evs, Event{PC: in.PC, Word: in.Word, MemAddr: in.MemAddr, Target: in.Target, Taken: in.Taken})
	})
	if err != nil && err != emu.ErrMaxInstructions {
		return nil, err
	}
	return evs, nil
}

// exactSize reports whether every column of tr holds exactly its events.
func exactSize(tr *Trace) bool {
	c, n := &tr.cols, tr.Len()
	return cap(c.pc) == n && cap(c.memAddr) == n && cap(c.target) == n && cap(c.ids) == n &&
		cap(c.taken) == (n+63)/64 && cap(c.words) == len(c.words)
}

// TestRecordMatchesAppendPath: recordings shorter than, exactly as long as
// and longer than one and several builder chunks — taken one after
// another, so each reuses (and the long ones extend) the builder the
// previous one left in the pool — are event for event what appending the
// retired instructions yields, exactly sized, and never alias the chunks a
// later recording overwrites.
func TestRecordMatchesAppendPath(t *testing.T) {
	type recorded struct {
		got    *Trace
		want   []Event
		digest string
	}
	var all []recorded
	for _, n := range []int{4, chunkEvents - 2, chunkEvents, chunkEvents + 2, 3 * chunkEvents, 1024, 2*chunkEvents + 6} {
		prog := loopProgram(t, n)
		got, err := Record("loop", prog, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		want, err := recordByAppend(prog, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != n || len(want) != n {
			t.Fatalf("%d events: recorded %d, append path %d", n, got.Len(), len(want))
		}
		if !exactSize(got) {
			t.Errorf("%d events: the trace's columns hold spare capacity", n)
		}
		all = append(all, recorded{got, want, got.Digest()})
	}
	for _, r := range all {
		for i, ev := range eventsOf(t, r.got) {
			if ev != r.want[i] {
				t.Fatalf("%d events: event %d = %+v, append path %+v", len(r.want), i, ev, r.want[i])
			}
		}
		if r.digest != New("loop", false, r.want...).Digest() {
			t.Errorf("%d events: digest differs from the append path's", len(r.want))
		}
	}
	// A budget-exhausted recording is still a valid, exact trace.
	cut, err := Record("cut", loopProgram(t, 4000), 1001)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Len() != 1001 || !exactSize(cut) {
		t.Errorf("budget-limited recording: len %d (exact size %v), want 1001", cut.Len(), exactSize(cut))
	}
}
