package simcache

import (
	"path/filepath"
	"sync"
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
)

func testTrace(t testing.TB, name string) *trace.Trace {
	t.Helper()
	b, ok := ubench.ByName(name)
	if !ok {
		t.Fatalf("unknown bench %s", name)
	}
	tr, err := b.Trace(ubench.Options{Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// eventsOf reads every event of tr through a cursor.
func eventsOf(t testing.TB, tr *trace.Trace) []trace.Event {
	t.Helper()
	c, err := trace.NewCursor(tr)
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		evs = append(evs, ev)
	}
	return evs
}

func TestHitMissAccounting(t *testing.T) {
	c := New()
	cfg := sim.PublicA53()
	tr := testTrace(t, "MD")

	direct, err := cfg.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if first != direct || second != direct {
		t.Error("cached results differ from direct simulation")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}

	// A different configuration of the same trace is a distinct unit.
	other := sim.PublicA72()
	if _, err := c.Run(other, tr); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats after second config = %+v, want 2 misses, 2 entries", st)
	}
}

func TestFingerprintIgnoresName(t *testing.T) {
	a := sim.PublicA53()
	b := sim.PublicA53()
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("cosmetic rename changed the fingerprint")
	}
	b.MSHRs++
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("parameter change did not change the fingerprint")
	}
}

func TestConcurrentDuplicatesSimulateOnce(t *testing.T) {
	c := New()
	cfg := sim.PublicA53()
	tr := testTrace(t, "MD")

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Run(cfg, tr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("%d misses for %d identical concurrent units, want exactly 1 simulation", st.Misses, n)
	}
	if st.Hits+st.Shared != n-1 {
		t.Errorf("hits %d + shared %d != %d", st.Hits, st.Shared, n-1)
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *Cache
	cfg := sim.PublicA53()
	tr := testTrace(t, "MD")
	res, err := c.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cfg.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res != direct {
		t.Error("nil cache altered the result")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	cfg := sim.PublicA53()
	tr := testTrace(t, "MD")
	path := filepath.Join(t.TempDir(), "cache.json")

	c1 := New()
	want, err := c1.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	c2 := New()
	n, err := c2.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d entries, want 1", n)
	}
	got, ok := c2.Peek(Key(cfg, tr))
	if !ok || got != want {
		t.Error("reloaded entry does not match the original result")
	}
	if _, err := c2.Run(cfg, tr); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("warm run stats = %+v, want pure hit", st)
	}
}

func TestLoadMissingFileIsCold(t *testing.T) {
	c := New()
	n, err := c.LoadFile(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || n != 0 {
		t.Errorf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
}

func TestPoisonedEntryRejectedByChecksum(t *testing.T) {
	cfg := sim.PublicA53()
	tr := testTrace(t, "MD")
	path := filepath.Join(t.TempDir(), "cache.json")

	c1 := New()
	res, err := c1.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// Poison the stored result: flip a bit of one counter without
	// refreshing the checksum, as disk corruption or a hand edit would.
	flipResultByte(t, path, Key(cfg, tr))

	// The index still lists the record; the first touch re-proves its
	// checksum and rejects it.
	c2 := New()
	if _, err := c2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Peek(Key(cfg, tr)); ok {
		t.Error("poisoned entry is servable from the cache")
	}
	if st := c2.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	// The unit re-simulates to the correct value instead.
	again, err := c2.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Error("re-simulated result differs from the original")
	}
}

// TestDecodeEntryAllocations: decoding one record with its key — what a
// Peek of a mapped record and Keys do per entry — allocates the key string
// and little else (it was 8 objects: the hex halves of the key, their
// concatenation and a Result escaping through reflection). A process that
// holds little else live pays for that garbage in GC cycles.
func TestDecodeEntryAllocations(t *testing.T) {
	tr := testTrace(t, "MD")
	res, err := sim.PublicA53().Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeRecord(pack(t, Key(sim.PublicA53(), tr)), &res)
	allocs := testing.AllocsPerRun(100, func() {
		rec, err := parseRecord(data)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		_ = spellKey(rec.key)
		var got core.Result
		if err := rec.check(resultWords(&got)); err != nil || got != res {
			t.Fatalf("decode: %v", err)
		}
	})
	if allocs > 4 {
		t.Errorf("decoding allocates %.0f objects per record, want <= 4", allocs)
	}
}
