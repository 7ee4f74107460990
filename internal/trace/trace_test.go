package trace

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"racesim/internal/asm"
	"racesim/internal/isa"
)

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	p, err := asm.Assemble(`
		.equ BUF, 0x40000
		la x1, BUF
		movz x2, #16
		movz x3, #0
	loop:
		ldrx x4, [x1, #0]
		add x3, x3, x4
		strx x3, [x1, #128]
		addi x1, x1, #8
		subi x2, x2, #1
		cbnz x2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record("sample", p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// eventsOf reads every event of tr through a cursor.
func eventsOf(t testing.TB, tr *Trace) []Event {
	t.Helper()
	c, err := NewCursor(tr)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]Event, 0, tr.Len())
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		evs = append(evs, ev)
	}
	return evs
}

func TestRecordProducesDynamicStream(t *testing.T) {
	tr := sampleTrace(t)
	if tr.Len() != 4+16*6 { // la expands to two instructions
		t.Errorf("trace length = %d, want %d", tr.Len(), 4+16*6)
	}
	mix := tr.ClassMix()
	if mix[isa.ClassLoad] != 16 || mix[isa.ClassStore] != 16 {
		t.Errorf("loads=%d stores=%d, want 16 each", mix[isa.ClassLoad], mix[isa.ClassStore])
	}
	if mix[isa.ClassBranch] != 16 {
		t.Errorf("branches=%d, want 16", mix[isa.ClassBranch])
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Errorf("name = %q, want %q", got.Name, tr.Name)
	}
	if !slices.Equal(eventsOf(t, got), eventsOf(t, tr)) || got.Digest() != tr.Digest() {
		t.Fatal("events differ after a round trip")
	}
}

func TestCompression(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(tr.Len())
	if perEvent > 8 {
		t.Errorf("%.1f bytes/event; delta+varint encoding should stay under 8", perEvent)
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	path := filepath.Join(t.TempDir(), "sample.rift")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("len = %d, want %d", got.Len(), tr.Len())
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("x"), []byte("NOPE"), []byte("RIFT\xFF")} {
		if _, err := ReadFrom(bytes.NewReader(b)); err == nil {
			t.Errorf("ReadFrom(%q) succeeded, want error", b)
		}
	}
	// Truncated valid prefix.
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestCursor(t *testing.T) {
	tr := sampleTrace(t)
	c, err := NewCursor(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok := c.Next()
		if !ok {
			break
		}
		n++
	}
	if n != tr.Len() {
		t.Errorf("iterated %d, want %d", n, tr.Len())
	}
	if _, ok := c.Next(); ok {
		t.Error("a cursor at the end of the trace yielded another event")
	}
}

// Property: arbitrary well-formed event sequences round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var evs []Event
		pc := uint64(0x1000)
		for i := 0; i < 200; i++ {
			var ev Event
			ev.PC = pc
			switch r.Intn(4) {
			case 0:
				ev.Word = isa.EncR(isa.OpADD, isa.X(r.Intn(31)), isa.X(r.Intn(31)), isa.X(r.Intn(31)))
			case 1:
				ev.Word = isa.EncMem(isa.OpLDRX, isa.X(1), isa.X(2), int64(r.Intn(4096)))
				ev.MemAddr = uint64(r.Int63n(1 << 40))
			case 2:
				ev.Word = isa.EncB(isa.OpB, int64(r.Intn(100)-50))
				ev.Taken = true
				ev.Target = uint64(int64(pc) + int64(r.Intn(100)-50)*4)
			default:
				ev.Word = isa.EncNOP()
			}
			evs = append(evs, ev)
			if ev.Taken {
				pc = ev.Target
			} else {
				pc += 4
			}
		}
		tr := New("prop", false, evs...)
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadFrom(&buf)
		return err == nil && slices.Equal(eventsOf(t, got), evs) && got.Digest() == tr.Digest()
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestWarmDataFlagRoundTrips(t *testing.T) {
	tr := sampleTrace(t)
	tr.WarmData = true
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.WarmData {
		t.Error("WarmData flag lost in serialization")
	}
	tr.WarmData = false
	buf.Reset()
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmData {
		t.Error("WarmData flag appeared from nowhere")
	}
}
