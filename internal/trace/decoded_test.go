package trace

import (
	"runtime"
	"sync"
	"testing"

	"racesim/internal/isa"
)

func decodedTestTrace(t *testing.T) *Trace {
	t.Helper()
	return New("decoded-test", false, decodedTestEvents()...)
}

func decodedTestEvents() []Event {
	add := isa.EncR(isa.OpADD, isa.X(1), isa.X(2), isa.X(3))
	ldr := isa.EncMem(isa.OpLDRX, isa.X(4), isa.X(5), 8)
	return []Event{
		{PC: 0x1000, Word: add},
		{PC: 0x1004, Word: ldr, MemAddr: 0x8000},
		{PC: 0x1008, Word: add},
		{PC: 0x100c, Word: ldr, MemAddr: 0x8040},
	}
}

func TestDecodedDeduplicatesStaticDecodes(t *testing.T) {
	tr := decodedTestTrace(t)
	d := tr.Decoded(false)
	if d.Err != nil {
		t.Fatal(d.Err)
	}
	if d.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", d.Len(), tr.Len())
	}
	if len(d.Insts) != 2 {
		t.Fatalf("unique static decodes = %d, want 2 (ADD, LDRX)", len(d.Insts))
	}
	if d.IDs[0] != d.IDs[2] || d.IDs[1] != d.IDs[3] {
		t.Fatalf("repeated words must share ids: %v", d.IDs)
	}
	for i, ev := range decodedTestEvents() {
		if d.PC[i] != ev.PC || d.MemAddr[i] != ev.MemAddr || d.Target[i] != ev.Target || d.Taken(i) != ev.Taken {
			t.Fatalf("dynamic column mismatch at event %d", i)
		}
		if d.Inst(i).Op != isa.OpADD && d.Inst(i).Op != isa.OpLDRX {
			t.Fatalf("unexpected op at event %d: %v", i, d.Inst(i).Op)
		}
	}
	// Static table entries carry no dynamic state.
	for _, in := range d.Insts {
		if in.MemAddr != 0 || in.Taken || in.Target != 0 {
			t.Fatalf("static decode carries dynamic fields: %+v", in)
		}
	}
}

func TestDecodedMemoizedPerVariant(t *testing.T) {
	// FP register numbers encode as raw indices in the register fields.
	fadd := isa.EncR(isa.OpFADD, isa.Reg(1), isa.Reg(2), isa.Reg(3))
	tr := New("variants", false, Event{PC: 0x2000, Word: fadd})
	correct := tr.Decoded(false)
	buggy := tr.Decoded(true)
	if correct == buggy {
		t.Fatal("variants must decode separately")
	}
	if tr.Decoded(false) != correct || tr.Decoded(true) != buggy {
		t.Fatal("Decoded must memoize per variant")
	}
	if got := correct.Insts[0].NSrc; got != 2 {
		t.Fatalf("correct decode NSrc = %d, want 2", got)
	}
	if got := buggy.Insts[0].NSrc; got != 1 {
		t.Fatalf("DepBug decode NSrc = %d, want 1 (dropped second FP source)", got)
	}
}

func TestDecodedInvalidWordStopsAtFirstFailure(t *testing.T) {
	evs := decodedTestEvents()
	evs = append(evs, Event{PC: 0x1010, Word: ^uint32(0)}, Event{PC: 0x1014, Word: evs[0].Word})
	d := New("invalid", false, evs...).Decoded(false)
	if d.Err == nil {
		t.Fatal("want decode error")
	}
	if d.Len() != 4 {
		t.Fatalf("decoded prefix = %d events, want 4 (up to the invalid word)", d.Len())
	}
}

func TestDecodedConcurrentAccess(t *testing.T) {
	tr := decodedTestTrace(t)
	var wg sync.WaitGroup
	got := make([]*Decoded, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tr.Decoded(i%2 == 0)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != tr.Decoded(i%2 == 0) {
			t.Fatalf("goroutine %d observed a different instance", i)
		}
	}
}

// TestSecondVariantAliasesTheColumns: both decoded variants of a trace are
// views of the trace's own columns, so the second one costs its table of
// distinct decodes — under 1 KB here — and no per-event memory.
func TestSecondVariantAliasesTheColumns(t *testing.T) {
	tr := sampleTrace(t)
	a := tr.Decoded(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := tr.Decoded(true)
	runtime.ReadMemStats(&after)
	if a.Err != nil || b.Err != nil || a.Len() != tr.Len() || b.Len() != tr.Len() {
		t.Fatalf("decodes of %d and %d events (errors %v, %v), want %d", a.Len(), b.Len(), a.Err, b.Err, tr.Len())
	}
	if &a.PC[0] != &b.PC[0] || &a.MemAddr[0] != &b.MemAddr[0] || &a.Target[0] != &b.Target[0] ||
		&a.IDs[0] != &b.IDs[0] || &a.TakenBits[0] != &b.TakenBits[0] || &a.PC[0] != &tr.cols.pc[0] {
		t.Error("the variants do not share the trace's columns")
	}
	if &a.Insts[0] == &b.Insts[0] {
		t.Error("the variants share one table of static decodes")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1024 {
		t.Errorf("the second variant allocated %d bytes, want under 1 KB", grew)
	}
	// Capacity ends at Len, so an append to a column copies instead of
	// writing into the trace.
	if cap(a.PC) != a.Len() || cap(b.IDs) != b.Len() {
		t.Errorf("decoded columns have capacity %d and %d past their %d events", cap(a.PC), cap(b.IDs), a.Len())
	}
}
