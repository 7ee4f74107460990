package simcache

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"racesim/internal/sim"
	"racesim/internal/trace"
)

// Adversity coverage for the binary mmap read path: every way a
// checkpoint can be damaged — truncated mid-record, a flipped byte
// inside one record, a torn index tail — must degrade to serving
// exactly the records that still prove their checksums, never to a
// failed open or a wrong result.

// seededBinarySnapshot simulates the named units and saves a binary
// snapshot, returning its path, its bytes, and the cache that wrote it.
func seededBinarySnapshot(t *testing.T, names ...string) (string, []byte, *Cache) {
	t.Helper()
	c := New()
	for _, name := range names {
		if _, err := c.Run(sim.PublicA53(), testTrace(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data, c
}

// indexOffOf reads the record-region end out of the footer.
func indexOffOf(t *testing.T, data []byte) int {
	t.Helper()
	if len(data) < headerSize+footerSize {
		t.Fatal("snapshot too small")
	}
	return int(binary.LittleEndian.Uint64(data[len(data)-footerSize:]))
}

func TestMappedTruncatedFileSalvages(t *testing.T) {
	path, data, _ := seededBinarySnapshot(t, "MD", "CS1", "MIP")
	// Cut mid-way through the last record: the index and footer are gone
	// and the final record is structurally broken.
	if err := os.WriteFile(path, data[:indexOffOf(t, data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("truncated snapshot failed to open: %v", err)
	}
	defer m.Close()
	if !m.Salvaged() {
		t.Error("truncated snapshot did not report salvage")
	}
	if m.Count() != 2 {
		t.Fatalf("salvaged %d records, want the 2 intact ones", m.Count())
	}
	m.RangeKeys(func(key string, _ int) bool {
		if _, err := m.Get(key); err != nil {
			t.Errorf("salvaged record %q failed to decode: %v", key, err)
		}
		return true
	})

	// The cache-level load path serves the survivors and re-simulates
	// the lost record.
	c := New()
	if _, _, err := c.LoadChecked(path); err != nil {
		t.Fatalf("LoadChecked on truncated snapshot: %v", err)
	}
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("cache entries = %d, want 2", got)
	}
}

func TestMappedFlippedRecordByteRejectsOnlyThatRecord(t *testing.T) {
	path, data, src := seededBinarySnapshot(t, "MD", "CS1", "MIP")
	poisoned, err := PoisonSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}

	// The index is intact, so the open is a clean O(index) one — the
	// flipped byte surfaces lazily, on the first Get of that record.
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("poisoned snapshot failed to open: %v", err)
	}
	defer m.Close()
	if m.Salvaged() {
		t.Error("intact index should not trigger salvage")
	}
	bad := 0
	m.RangeKeys(func(key string, _ int) bool {
		if _, err := m.Get(key); err != nil {
			bad++
		}
		return true
	})
	if bad != 1 {
		t.Fatalf("%d records rejected, want exactly the flipped one", bad)
	}

	// Through the cache: the poisoned record re-simulates (one miss, one
	// rejection), the other two hit disk, and every result matches the
	// pristine cache.
	c := New()
	if _, _, err := c.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MD", "CS1", "MIP"} {
		tr := testTrace(t, name)
		got, err := c.Run(sim.PublicA53(), tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := src.Run(sim.PublicA53(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: result diverged after poisoning", name)
		}
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 1 rejected", st)
	}
}

func TestMappedTornIndexTailSalvages(t *testing.T) {
	path, data, _ := seededBinarySnapshot(t, "MD", "CS1", "MIP")
	// Tear bytes off the end: the records are all intact, but the footer
	// (and part of the index) is gone — the crash window of a writer
	// that died between the record flush and the rename.
	if err := os.WriteFile(path, data[:len(data)-footerSize-5], 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("torn-index snapshot failed to open: %v", err)
	}
	defer m.Close()
	if !m.Salvaged() {
		t.Error("torn index did not report salvage")
	}
	if m.Count() != 3 {
		t.Fatalf("salvaged %d records, want all 3 (records were intact)", m.Count())
	}
	m.RangeKeys(func(key string, _ int) bool {
		if _, err := m.Get(key); err != nil {
			t.Errorf("record %q failed after index tear: %v", key, err)
		}
		return true
	})
}

// TestMappedConcurrentReaders hammers one mapped snapshot — and the
// cache in front of it — from many goroutines. Run under -race in CI:
// the mmap read path and the cache's counted lookups over it must be
// data-race free.
func TestMappedConcurrentReaders(t *testing.T) {
	path, _, src := seededBinarySnapshot(t, "MD", "CS1", "MIP")
	c := New()
	if _, _, err := c.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	names := []string{"MD", "CS1", "MIP"}
	traces := map[string]*trace.Trace{}
	want := map[string]uint64{}
	for _, name := range names {
		traces[name] = testTrace(t, name)
		res, err := src.Run(sim.PublicA53(), traces[name])
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res.Cycles
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, name := range names {
					res, err := c.Run(sim.PublicA53(), traces[name])
					if err != nil {
						t.Error(err)
						return
					}
					if res.Cycles != want[name] {
						t.Errorf("%s: cycles %d, want %d", name, res.Cycles, want[name])
						return
					}
				}
				// Raw mapped reads race the cache's lookups.
				if m := c.Disk(); m != nil {
					m.RangeKeys(func(key string, _ int) bool {
						_, _ = m.Get(key)
						return true
					})
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != 0 {
		t.Errorf("concurrent warm reads missed: %+v", st)
	}
}
