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

// recordByAppend is the recording Record used to do: grow the trace's own
// slice from 1024 events by doubling. It stays here as the reference.
func recordByAppend(name string, prog *isa.Program, maxInst uint64) (*Trace, error) {
	m := emu.New(prog)
	t := &Trace{Name: name, Events: make([]Event, 0, 1024)}
	err := m.Run(maxInst, func(in isa.Inst) {
		t.Events = append(t.Events, FromInst(in))
	})
	if err != nil && err != emu.ErrMaxInstructions {
		return nil, err
	}
	return t, nil
}

// TestRecordMatchesAppendPath: recordings shorter than, exactly as long as
// and longer than one and several recorder chunks — taken one after
// another, so each reuses (and the long ones extend) the recorder the
// previous one left in the pool — are event for event what appending to
// the trace yields, exactly sized, and never alias the chunks a later
// recording overwrites.
func TestRecordMatchesAppendPath(t *testing.T) {
	type recorded struct {
		got, want *Trace
		digest    string
	}
	var all []recorded
	for _, n := range []int{4, chunkEvents - 2, chunkEvents, chunkEvents + 2, 3 * chunkEvents, 1024, 2*chunkEvents + 6} {
		prog := loopProgram(t, n)
		got, err := Record("loop", prog, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		want, err := recordByAppend("loop", prog, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != n || want.Len() != n {
			t.Fatalf("%d events: recorded %d, append path %d", n, got.Len(), want.Len())
		}
		if cap(got.Events) != n {
			t.Errorf("%d events: trace holds capacity for %d", n, cap(got.Events))
		}
		all = append(all, recorded{got, want, got.Digest()})
	}
	for _, r := range all {
		for i := range r.want.Events {
			if r.got.Events[i] != r.want.Events[i] {
				t.Fatalf("%d events: event %d = %+v, append path %+v", r.want.Len(), i, r.got.Events[i], r.want.Events[i])
			}
		}
		if r.digest != r.want.Digest() {
			t.Errorf("%d events: digest differs from the append path's", r.want.Len())
		}
	}
	// A budget-exhausted recording is still a valid, exact trace.
	cut, err := Record("cut", loopProgram(t, 4000), 1001)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Len() != 1001 || cap(cut.Events) != 1001 {
		t.Errorf("budget-limited recording: len %d cap %d, want 1001", cut.Len(), cap(cut.Events))
	}
}
