package trace_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/isa"
	"racesim/internal/lmbench"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// legacyDecode is the event-wise decode every Decoded was built by until
// the columns were shared (PR 25), kept as the oracle the columnar decode
// must equal: one map lookup per event, each event's dynamic fields copied
// into the variant's own columns, stopping at the first event whose word
// does not decode. It reads the events through a cursor where it used to
// range over the trace's event slice.
func legacyDecode(t *trace.Trace, depBug bool) *trace.Decoded {
	c, err := trace.NewCursor(t)
	if err != nil {
		return &trace.Decoded{Name: t.Name, WarmData: t.WarmData, DepBug: depBug, Err: err}
	}
	dec := isa.Decoder{DepBug: depBug}
	n := t.Len()
	d := &trace.Decoded{
		Name:      t.Name,
		WarmData:  t.WarmData,
		DepBug:    depBug,
		IDs:       make([]uint32, 0, n),
		PC:        make([]uint64, 0, n),
		MemAddr:   make([]uint64, 0, n),
		Target:    make([]uint64, 0, n),
		TakenBits: make([]uint64, (n+63)/64),
	}
	ids := make(map[uint32]uint32, 256)
	for i := 0; ; i++ {
		ev, ok := c.Next()
		if !ok {
			break
		}
		id, ok := ids[ev.Word]
		if !ok {
			in, err := dec.Decode(0, ev.Word)
			if err != nil {
				d.Err = err
				break
			}
			id = uint32(len(d.Insts))
			d.Insts = append(d.Insts, in)
			ids[ev.Word] = id
		}
		d.IDs = append(d.IDs, id)
		d.PC = append(d.PC, ev.PC)
		d.MemAddr = append(d.MemAddr, ev.MemAddr)
		d.Target = append(d.Target, ev.Target)
		if ev.Taken {
			d.TakenBits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return d
}

// sameDecode reports the first field in which got differs from want.
func sameDecode(got, want *trace.Decoded) error {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	switch {
	case got.Name != want.Name || got.WarmData != want.WarmData || got.DepBug != want.DepBug:
		return fmt.Errorf("header %q/%v/%v, want %q/%v/%v", got.Name, got.WarmData, got.DepBug, want.Name, want.WarmData, want.DepBug)
	case errText(got.Err) != errText(want.Err):
		return fmt.Errorf("Err %v, want %v", got.Err, want.Err)
	case !slices.Equal(got.Insts, want.Insts):
		return fmt.Errorf("%d static decodes, want %d (or they differ)", len(got.Insts), len(want.Insts))
	case !slices.Equal(got.IDs, want.IDs):
		return fmt.Errorf("IDs differ (%d, want %d)", len(got.IDs), len(want.IDs))
	case !slices.Equal(got.PC, want.PC):
		return fmt.Errorf("PC differs")
	case !slices.Equal(got.MemAddr, want.MemAddr):
		return fmt.Errorf("MemAddr differs")
	case !slices.Equal(got.Target, want.Target):
		return fmt.Errorf("Target differs")
	case !slices.Equal(got.TakenBits, want.TakenBits):
		return fmt.Errorf("TakenBits differ")
	}
	return nil
}

// collector is an identity store that keeps every trace a memo generated.
type collector struct {
	mu  sync.Mutex
	trs []*trace.Trace
}

func (c *collector) LookupIdentity(string) (trace.Identity, bool) { return trace.Identity{}, false }

func (c *collector) RecordIdentity(_ string, tr *trace.Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trs = append(c.trs, tr)
}

// oracleTraces returns traces from every source: micro-benchmarks (raw and
// initialized), the Table II workloads, the six lmbench traces and the RIFT
// file a parent binary wrote.
func oracleTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	col := &collector{}
	memo := tracememo.New(0, 0).WithIdentities(col)
	for _, name := range []string{"MD", "CCh_st", "CS3", "EF", "DP1d", "STc"} {
		b, _ := ubench.ByName(name)
		for _, init := range []bool{false, true} {
			if _, err := memo.Ubench(b, ubench.Options{Scale: 0.001, InitArrays: init}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range workload.Profiles() {
		if _, err := memo.Workload(p, workload.Options{Events: 3000, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lmbench.Estimate(plat.A53, memo, 1); err != nil {
		t.Fatal(err)
	}
	file, err := trace.ReadFile("testdata/cch_st.rift")
	if err != nil {
		t.Fatal(err)
	}
	return append(col.trs, file)
}

// TestDecodedMatchesLegacyDecode: the columnar decode equals the
// event-wise one field for field, for both variants and traces of every
// source.
func TestDecodedMatchesLegacyDecode(t *testing.T) {
	trs := oracleTraces(t)
	if len(trs) != 12+11+6+1 {
		t.Fatalf("%d traces, want 30", len(trs))
	}
	for _, tr := range trs {
		for _, depBug := range []bool{false, true} {
			if err := sameDecode(tr.Decoded(depBug), legacyDecode(tr, depBug)); err != nil {
				t.Errorf("%s (%d events), DepBug %v: %v", tr.Name, tr.Len(), depBug, err)
			}
		}
	}
}

// TestDecodedMatchesLegacyDecodeOnUndecodableWords: a word that does not
// decode, first seen at the first, a middle or the last event and (but for
// the last) seen again later, with a second undecodable word after it:
// both decodes stop at its first occurrence with the same error, prefix and
// table.
func TestDecodedMatchesLegacyDecodeOnUndecodableWords(t *testing.T) {
	b, _ := ubench.ByName("CCh_st")
	src, err := b.Trace(ubench.Options{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	c, err := trace.NewCursor(src)
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		evs = append(evs, ev)
	}
	bad := func(pc uint64, word uint32) trace.Event {
		return trace.Event{PC: pc, Word: word, MemAddr: 0x40, Taken: true}
	}
	const bad1, bad2 = ^uint32(0), uint32(isa.NumOps) << 26 // two invalid opcodes
	n := len(evs)
	for name, at := range map[string]int{"first": 0, "middle": n / 2, "last": n} {
		mixed := slices.Clone(evs)
		mixed = slices.Insert(mixed, at, bad(0x9000, bad1))
		if at < n {
			mixed = slices.Insert(mixed, at+1+(n-at)/2, bad(0x9004, bad1), bad(0x9008, bad2))
			mixed = append(mixed, bad(0x900c, bad1))
		}
		tr := trace.New(name, true, mixed...)
		for _, depBug := range []bool{false, true} {
			got := tr.Decoded(depBug)
			if got.Err == nil || got.Len() != at {
				t.Errorf("%s: decode of %d events (error %v), want it to stop at %d", name, got.Len(), got.Err, at)
			}
			if err := sameDecode(got, legacyDecode(tr, depBug)); err != nil {
				t.Errorf("%s, DepBug %v: %v", name, depBug, err)
			}
		}
	}
}
