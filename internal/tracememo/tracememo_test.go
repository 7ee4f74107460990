package tracememo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"racesim/internal/isa"
	"racesim/internal/trace"
)

func tinyTrace(name string, events int) *trace.Trace {
	add := isa.EncR(isa.OpADD, isa.X(1), isa.X(2), isa.X(3))
	evs := make([]trace.Event, events)
	for i := range evs {
		evs[i] = trace.Event{PC: uint64(i) * 4, Word: add}
	}
	return trace.New(name, false, evs...)
}

func TestGetMemoizesByKey(t *testing.T) {
	m := New(0, 0)
	calls := 0
	gen := func() (*trace.Trace, error) { calls++; return tinyTrace("a", 10), nil }

	first, err := m.Get("k", gen)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Get("k", gen)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("repeat Get returned a different trace pointer")
	}
	if calls != 1 {
		t.Errorf("generator ran %d times, want 1", calls)
	}
	if _, err := m.Get("other", gen); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("distinct key should generate: %d calls, want 2", calls)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 2 entries", st)
	}
}

func TestNilMemoGenerates(t *testing.T) {
	var m *Memo
	tr, err := m.Get("k", func() (*trace.Trace, error) { return tinyTrace("a", 1), nil })
	if err != nil || tr == nil {
		t.Fatalf("nil memo Get = (%v, %v), want a generated trace", tr, err)
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Errorf("nil memo stats = %+v, want zero", st)
	}
}

func TestErrorsAreNotStored(t *testing.T) {
	m := New(0, 0)
	boom := errors.New("boom")
	if _, err := m.Get("k", func() (*trace.Trace, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed generation must not poison the key: a retry generates.
	tr, err := m.Get("k", func() (*trace.Trace, error) { return tinyTrace("a", 1), nil })
	if err != nil || tr == nil {
		t.Fatalf("retry after error = (%v, %v), want success", tr, err)
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	// Budget fits roughly two 100-event traces.
	m := New(2*Size(tinyTrace("x", 100))+1, 0)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := m.Get(key, func() (*trace.Trace, error) { return tinyTrace(key, 100), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions under budget pressure: %+v", st)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	// k0 was least recently used; k2 must have survived.
	regen := 0
	if _, err := m.Get("k2", func() (*trace.Trace, error) { regen++; return tinyTrace("k2", 100), nil }); err != nil {
		t.Fatal(err)
	}
	if regen != 0 {
		t.Error("most recent entry was evicted")
	}
}

func TestOversizeEntryStillServed(t *testing.T) {
	m := New(1, 0) // smaller than any trace
	tr, err := m.Get("big", func() (*trace.Trace, error) { return tinyTrace("big", 1000), nil })
	if err != nil || tr == nil {
		t.Fatalf("oversize Get = (%v, %v), want the trace", tr, err)
	}
	if st := m.Stats(); st.Entries != 1 {
		t.Errorf("the newest entry must survive eviction: %+v", st.Entries)
	}
}

// TestConcurrentGetSingleflight proves that concurrent Gets of one key
// generate exactly once and all receive the same trace. Run under -race
// in CI alongside the decoded-trace sharing tests.
func TestConcurrentGetSingleflight(t *testing.T) {
	m := New(0, 0)
	var calls atomic.Int32
	var wg sync.WaitGroup
	results := make([]*trace.Trace, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := m.Get("k", func() (*trace.Trace, error) {
				calls.Add(1)
				return tinyTrace("k", 50), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = tr
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times under concurrent Gets, want 1", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent Gets received different trace pointers")
		}
	}
}

// mapStore is an IdentityStore in memory: what a snapshot is to a job.
type mapStore struct {
	mu      sync.Mutex
	ids     map[string]trace.Identity
	lookups int
}

func (s *mapStore) LookupIdentity(key string) (trace.Identity, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	id, ok := s.ids[key]
	return id, ok
}

func (s *mapStore) RecordIdentity(key string, tr *trace.Trace) {
	id := tr.Identity()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ids == nil {
		s.ids = map[string]trace.Identity{}
	}
	s.ids[key] = id
}

// TestRememberedIdentityDefersGeneration: a memo that generates tells its
// store; a later memo over the same store — another process, in practice —
// hands the trace out without generating it, identical in everything but
// its events, and generates (once, counted) when something reads those.
// Requests that do not name the trace are never deferred.
func TestRememberedIdentityDefersGeneration(t *testing.T) {
	store := &mapStore{}
	var calls atomic.Int32
	gen := func() (*trace.Trace, error) { calls.Add(1); return tinyTrace("a", 10), nil }

	first := New(0, 0).WithIdentities(store)
	cold, err := first.Named("k", "a", gen)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.Misses != 1 || st.Generated != 1 || cold.Resident() != 10 {
		t.Fatalf("first memo: %+v, %d events resident; want one trace generated", st, cold.Resident())
	}
	if _, ok := store.ids["k"]; !ok || len(store.ids) != 1 {
		t.Fatalf("store holds %v, want the identity of k", store.ids)
	}

	second := New(0, 0).WithIdentities(store)
	warm, err := second.Named("k", "a", gen)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := second.Named("k", "a", gen); again != warm {
		t.Error("repeat request returned another trace")
	}
	if warm.Name != cold.Name || warm.Identity() != cold.Identity() {
		t.Errorf("deferred trace is %q %+v, the generated one %q %+v", warm.Name, warm.Identity(), cold.Name, cold.Identity())
	}
	if st := second.Stats(); st.Misses != 1 || st.Hits != 1 || st.Generated != 0 || calls.Load() != 1 || warm.Resident() != 0 {
		t.Fatalf("second memo: %+v after %d generator runs; want the trace handed out ungenerated", st, calls.Load())
	}
	if d := warm.Decoded(false); d.Err != nil || d.Len() != 10 {
		t.Fatalf("decode of the deferred trace: %d events, error %v", d.Len(), d.Err)
	}
	warm.Decoded(true)
	if st := second.Stats(); st.Generated != 1 || calls.Load() != 2 {
		t.Errorf("after two decodes: %+v, %d generator runs; want the one materialization counted", st, calls.Load())
	}

	// Get cannot say what the trace will be called, so it generates, and
	// neither asks the store nor tells it.
	lookups := store.lookups
	if _, err := second.Get("unnamed", gen); err != nil {
		t.Fatal(err)
	}
	if tr, _ := New(0, 0).WithIdentities(store).Get("k", gen); tr.Resident() != 10 {
		t.Error("Get returned a deferred trace")
	}
	if store.lookups != lookups || len(store.ids) != 1 {
		t.Errorf("Get consulted the store (%d lookups, %d identities)", store.lookups-lookups, len(store.ids))
	}
}

// TestDeferredMismatchFailsTheReaderNotTheMemo: a store that remembers
// something else for a key (its generator changed under one build ID,
// which cannot happen, or is not a function of its parameters, which can)
// costs the simulation that reads events, never a silently different trace.
func TestDeferredMismatchFailsTheReaderNotTheMemo(t *testing.T) {
	store := &mapStore{}
	New(0, 0).WithIdentities(store).Named("k", "a", func() (*trace.Trace, error) { return tinyTrace("a", 10), nil })
	m := New(0, 0).WithIdentities(store)
	tr, err := m.Named("k", "a", func() (*trace.Trace, error) { return tinyTrace("a", 11), nil })
	if err != nil {
		t.Fatalf("the request itself failed: %v", err)
	}
	if d := tr.Decoded(false); d.Err == nil || d.Len() != 0 {
		t.Errorf("decode of a trace that is not the remembered one: %d events, error %v", d.Len(), d.Err)
	}
}

// TestBudgetCountsDeferredEntriesWhenTheyMaterialize: a deferred entry is
// charged its overhead; the budget sees its events the moment they exist —
// not at the next request — and evicts the least recently used others. The
// evicted traces stay good for whoever holds them.
func TestBudgetCountsDeferredEntriesWhenTheyMaterialize(t *testing.T) {
	store := &mapStore{}
	gen := func(key string) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) { return tinyTrace(key, 100), nil }
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	seed := New(0, 0).WithIdentities(store)
	for _, k := range keys {
		if _, err := seed.Named(k, k, gen(k)); err != nil {
			t.Fatal(err)
		}
	}

	full := Size(tinyTrace("x", 100))
	budget := 2*full + 2*entryOverhead // two materialized traces beside two deferred ones
	m := New(budget, 0).WithIdentities(store)
	trs := map[string]*trace.Trace{}
	for _, k := range keys {
		tr, err := m.Named(k, k, gen(k))
		if err != nil {
			t.Fatal(err)
		}
		trs[k] = tr
	}
	if st := m.Stats(); st.Entries != 4 || st.Evicted != 0 || st.Bytes != 4*entryOverhead {
		t.Fatalf("four deferred entries: %+v, want %d bytes of overhead and nothing evicted", st, 4*entryOverhead)
	}
	trs["k0"].Decoded(false)
	trs["k1"].Decoded(false)
	if st := m.Stats(); st.Entries != 4 || st.Evicted != 0 || st.Bytes != budget {
		t.Fatalf("two materialized, two deferred: %+v, want %d bytes and nothing evicted", st, budget)
	}
	// The third materialization does not fit: the least recently used
	// entries go — the deferred k3, then the materialized k0 — until it does.
	trs["k2"].Decoded(false)
	st := m.Stats()
	if st.Bytes != 2*full || st.Evicted != 2 || st.Entries != 2 {
		t.Fatalf("after the third materialization: %+v, want two entries of %d bytes under the budget of %d", st, 2*full, budget)
	}
	regenerated := 0
	if _, err := m.Named("k2", "k2", func() (*trace.Trace, error) { regenerated++; return tinyTrace("k2", 100), nil }); err != nil || regenerated != 0 {
		t.Errorf("the entry that just materialized was evicted (error %v)", err)
	}
	if d := trs["k3"].Decoded(false); d.Err != nil || d.Len() != 100 {
		t.Errorf("an evicted deferred trace no longer materializes: %d events, error %v", d.Len(), d.Err)
	}
	if after := m.Stats(); after.Bytes != st.Bytes {
		t.Errorf("materializing an evicted trace moved the memo's bytes from %d to %d", st.Bytes, after.Bytes)
	}
}

// TestConcurrentFirstRequestsOfRememberedKey: concurrent first requests of
// a key the store remembers share one deferred trace, and its concurrent
// readers one generation. Run under -race in CI.
func TestConcurrentFirstRequestsOfRememberedKey(t *testing.T) {
	store := &mapStore{}
	New(0, 0).WithIdentities(store).Named("k", "k", func() (*trace.Trace, error) { return tinyTrace("k", 50), nil })
	m := New(0, 0).WithIdentities(store)
	var calls atomic.Int32
	var wg sync.WaitGroup
	results := make([]*trace.Trace, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := m.Named("k", "k", func() (*trace.Trace, error) {
				calls.Add(1)
				return tinyTrace("k", 50), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = tr
			if d := tr.Decoded(i%2 == 0); d.Err != nil || d.Len() != 50 {
				t.Errorf("decode: %d events, error %v", d.Len(), d.Err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent requests received different trace pointers")
		}
	}
	if st := m.Stats(); calls.Load() != 1 || st.Generated != 1 || st.Hits+st.Misses != 16 || st.Misses != 1 {
		t.Errorf("%d generator runs, %+v; want one generation for 16 requests", calls.Load(), st)
	}
}
