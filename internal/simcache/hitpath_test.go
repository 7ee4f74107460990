package simcache

import (
	"encoding/binary"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
)

// The hit path: a lookup the attached snapshot can answer is one index
// search, a checksum, a decode and a counted hit — no alias claim, no
// copy into memory. Run under -race in CI.

// mappedFixture opens the fabricated fixtureEntries-record snapshot as a
// cache's disk tier.
func mappedFixture(tb testing.TB) *Cache {
	tb.Helper()
	c := New()
	if _, _, err := c.LoadChecked(buildFixture(tb, fixtureEntries)); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// TestMappedHitsConcurrent: lookups from many goroutines, over keys they
// share and keys each has to itself, are all hits — exactly that many —
// with nothing shared, simulated or kept, and each answers what the
// snapshot holds.
func TestMappedHitsConcurrent(t *testing.T) {
	const goroutines, lookups = 8, 2000
	c := mappedFixture(t)
	m := c.Disk()
	cfg, tr := sim.PublicA53(), testTrace(t, "MD") // never run: every key is stored
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				n := i % 50 // a key every goroutine asks for
				if i%2 == 1 {
					n = 100 + g*lookups/2 + i/2 // a key only this one does
				}
				key := fixtureKey(n)
				got, err := c.RunKeyed(key, cfg, tr)
				if err != nil {
					t.Error(err)
					return
				}
				if want, err := m.Get(key); err != nil || got != want || got != fixtureResult(n) {
					t.Errorf("key %d: the cache and the snapshot disagree (%v)", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits != goroutines*lookups || st.Misses != 0 || st.Shared != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want exactly %d hits and nothing else", st, goroutines*lookups)
	}
	if st.MemEntries != 0 || st.Entries != fixtureEntries {
		t.Errorf("stats = %+v, want no disk hit kept in memory", st)
	}
}

// flipResultByte damages the record stored for key in the snapshot at path:
// one bit of its result payload, checksum left alone.
func flipResultByte(t *testing.T, path, key string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := headerSize; ; {
		rec, err := parseRecord(data[off:])
		if err != nil {
			t.Fatalf("no record for %q: %v", key, err)
		}
		if spellKey(rec.key) == key {
			rec.resBytes[1] ^= 1 // aliases data; byte 0 is the field count
			break
		}
		off += len(rec.bytes)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptRecordSimulatedOnce: a record that fails its checksum is
// counted rejected once, its pair simulated once however many ask for it at
// the same time, and the simulated result answers from memory afterwards,
// over the record it shadows.
func TestCorruptRecordSimulatedOnce(t *testing.T) {
	const askers = 8
	path, _, src := seededBinarySnapshot(t, "MD", "CS1", "MIP")
	cfg, tr := sim.PublicA53(), testTrace(t, "CS1")
	key := Key(cfg, tr)
	want, ok := src.Peek(key)
	if !ok {
		t.Fatal("the seeding cache lost a unit")
	}
	flipResultByte(t, path, key)
	c := New()
	if _, _, err := c.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got, err := c.RunKeyed(key, cfg, tr); err != nil || got != want {
				t.Errorf("asked while the record was corrupt: wrong result (%v)", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := c.Stats()
	if st.Rejected != 1 || st.Misses != 1 || st.Hits+st.Shared != askers-1 {
		t.Errorf("stats = %+v, want one rejection, one simulation and %d askers served by it", st, askers-1)
	}
	if got, err := c.RunKeyed(key, cfg, tr); err != nil || got != want {
		t.Errorf("asked afterwards: wrong result (%v)", err)
	}
	after := c.Stats()
	if after.Hits != st.Hits+1 || after.Misses != 1 || after.Rejected != 1 {
		t.Errorf("stats = %+v after %+v: the simulated result did not answer from memory", after, st)
	}
	if after.Entries != 3 || after.MemEntries != 1 || after.DiskEntries != 3 {
		t.Errorf("stats = %+v, want the 3 entries there were, one of them shadowed in memory", after)
	}
	if _, err := c.Disk().Get(key); err == errNoRecord {
		t.Error("the shadowed record is no longer indexed")
	}
}

// TestMemoryAnswersBeforeDisk: a key held in both tiers answers from memory.
func TestMemoryAnswersBeforeDisk(t *testing.T) {
	c := mappedFixture(t)
	key := fixtureKey(7)
	newer := fixtureResult(7)
	newer.Cycles++
	if !c.Store(key, newer) {
		t.Error("storing over a disk record did not report a replacement")
	}
	cfg, tr := sim.PublicA53(), testTrace(t, "MD")
	if got, err := c.RunKeyed(key, cfg, tr); err != nil || got != newer {
		t.Errorf("RunKeyed answered from the shadowed disk record (%v)", err)
	}
	if got, ok := c.Peek(key); !ok || got != newer {
		t.Error("Peek answered from the shadowed disk record")
	}
	if got, err := c.Disk().Get(key); err != nil || got != fixtureResult(7) {
		t.Errorf("the disk record changed (%v)", err)
	}
	if st := c.Stats(); st.Hits != 1 || st.MemEntries != 1 || st.Entries != fixtureEntries {
		t.Errorf("stats = %+v, want 1 hit, 1 memory entry and the %d entries there were", st, fixtureEntries)
	}
}

// TestMappedHitAllocations: one disk hit through RunKeyed allocates nothing
// — the key is packed, compared, hashed and checksummed in place and the
// result decoded straight into the return value. A second index search, a
// key string or a copy kept in memory would each show here.
func TestMappedHitAllocations(t *testing.T) {
	c := mappedFixture(t)
	cfg, tr := sim.PublicA53(), testTrace(t, "MD")
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fixtureKey(i * 131)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.RunKeyed(keys[i%len(keys)], cfg, tr); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Errorf("a mapped hit allocates %.1f objects, want none", allocs)
	}
	if st := c.Stats(); st.Misses != 0 || st.MemEntries != 0 {
		t.Errorf("stats = %+v, want hits only", st)
	}
}

// reflectFields is the codec's field walk as it was before the word view:
// core.Result visited by reflection, uint64 by uint64, in declaration order
// (nested structs and arrays depth-first). It stays here as the reference
// the word view is checked against.
func reflectFields(v reflect.Value, f func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Uint64:
		f(v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reflectFields(v.Field(i), f)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			reflectFields(v.Index(i), f)
		}
	default:
		panic("core.Result holds a " + v.Kind().String())
	}
}

// TestCodecMatchesReflectionWalk: over random results, the word view and
// the reflective walk see the same fields in the same order — what one
// encodes the other decodes, both ways round.
func TestCodecMatchesReflectionWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 200; round++ {
		var res core.Result
		reflectFields(reflect.ValueOf(&res).Elem(), func(v reflect.Value) {
			// All varint widths, zero included.
			v.SetUint(rng.Uint64() >> uint(rng.Intn(65)))
		})
		var walked []uint64
		reflectFields(reflect.ValueOf(&res).Elem(), func(v reflect.Value) { walked = append(walked, v.Uint()) })
		if len(walked) != numResultFields {
			t.Fatalf("the walk finds %d fields, the codec counts %d", len(walked), numResultFields)
		}

		// Encoded by the walk, decoded through the word view.
		byWalk := binary.AppendUvarint(nil, uint64(len(walked)))
		for _, x := range walked {
			byWalk = binary.AppendUvarint(byWalk, x)
		}
		var got core.Result
		if err := walkPayload(byWalk, resultWords(&got)); err != nil || got != res {
			t.Fatalf("round %d: the word view misreads what the walk encoded (%v)", round, err)
		}
		// Encoded through the word view, decoded by the walk.
		byWords := appendResult(nil, &res)
		if string(byWords) != string(byWalk) {
			t.Fatalf("round %d: the two encodings differ", round)
		}
		var back core.Result
		_, used := binary.Uvarint(byWords) // the field count
		rest := byWords[used:]
		reflectFields(reflect.ValueOf(&back).Elem(), func(v reflect.Value) {
			x, used := binary.Uvarint(rest)
			v.SetUint(x)
			rest = rest[used:]
		})
		if back != res || len(rest) != 0 {
			t.Fatalf("round %d: the walk misreads what the word view encoded", round)
		}
	}
}
