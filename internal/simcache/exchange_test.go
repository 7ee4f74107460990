package simcache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"racesim/internal/core"
)

// The snapshot exchange: a result lives as one record from memory to disk
// to wire. These tests hold the record-copying writer and import to what
// the encode-per-record versions before them did, kept here as oracles.

// encodePerRecordSnapshot is the snapshot writer as it was before records
// were copied: every key the cache serves (memory merged with the attached
// tier) sorted, each result fetched — decoded from memory, or read, verified
// and decoded from the mapping — and encoded again. A disk record that fails
// its checksum is left out.
func encodePerRecordSnapshot(t *testing.T, c *Cache) []byte {
	t.Helper()
	fetch := func(key string) (core.Result, bool) {
		c.mu.Lock()
		ce := c.mem[*pack(t, key)]
		disk := c.disk
		c.mu.Unlock()
		if ce != nil {
			var res core.Result
			decodeStored(ce.rec, &res)
			return res, true
		}
		res, err := disk.Get(key)
		return res, err == nil
	}
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	var hdr [headerSize]byte
	copy(hdr[:4], binMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], binVersion)
	bw.Write(hdr[:])
	off := uint64(headerSize)
	var index []idxEntry
	for _, key := range c.Keys() {
		res, ok := fetch(key)
		if !ok {
			continue
		}
		rec := encodeRecord(pack(t, key), &res)
		bw.Write(rec)
		index = append(index, idxEntry{hash: keyHash(pack(t, key)), off: off, size: uint32(len(rec))})
		off += uint64(len(rec))
	}
	sort.Slice(index, func(i, j int) bool {
		if index[i].hash != index[j].hash {
			return index[i].hash < index[j].hash
		}
		return index[i].off < index[j].off
	})
	ih := sha256.New()
	ih.Write([]byte{indexMarker})
	bw.WriteByte(indexMarker)
	for _, e := range index {
		var ebuf [indexEntrySize]byte
		binary.LittleEndian.PutUint64(ebuf[0:8], e.hash)
		binary.LittleEndian.PutUint64(ebuf[8:16], e.off)
		binary.LittleEndian.PutUint32(ebuf[16:20], e.size)
		ih.Write(ebuf[:])
		bw.Write(ebuf[:])
	}
	var ftr [footerSize]byte
	binary.LittleEndian.PutUint64(ftr[0:8], off)
	binary.LittleEndian.PutUint64(ftr[8:16], uint64(len(index)))
	copy(ftr[16:24], ih.Sum(nil)[:8])
	copy(ftr[28:32], footerMagic[:])
	bw.Write(ftr[:])
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// pack is key's packed form; the test fails on a key that does not pack.
func pack(t testing.TB, key string) *[keySize]byte {
	t.Helper()
	var k [keySize]byte
	if !packKey(key, &k) {
		t.Fatalf("%q is not a cache key", key)
	}
	return &k
}

// randomKey is a simulation key or, one time in five, a trace identity's.
func randomKey(rng *rand.Rand) string {
	var b [64]byte
	rng.Read(b[:])
	if rng.Intn(5) == 0 {
		copy(b[32:], identityTag[:])
	}
	return spellKey(b[:])
}

// randomResult fills every field with a value of random varint width.
func randomResult(rng *rand.Rand) core.Result {
	var res core.Result
	for i, w := 0, resultWords(&res); i < len(w); i++ {
		w[i] = rng.Uint64() >> uint(rng.Intn(65))
	}
	return res
}

// randomFile writes n random results to a snapshot file with the oracle
// writer, returning its path and keys.
func randomFile(t *testing.T, rng *rand.Rand, n int) (string, []string) {
	t.Helper()
	src := New()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = randomKey(rng)
		src.Store(keys[i], randomResult(rng))
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("r%d.snap", rng.Int()))
	if err := os.WriteFile(path, encodePerRecordSnapshot(t, src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, keys
}

// attach opens path as a new cache's disk tier.
func attach(t *testing.T, path string) *Cache {
	t.Helper()
	c := New()
	if _, _, err := c.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// damage rewrites the file at path through f.
func damage(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWriterMatchesEncodePerRecordWriter: over random caches of
// every shape a writer meets, copying records writes the bytes encoding
// every result again wrote, byte for byte.
func TestSnapshotWriterMatchesEncodePerRecordWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	shapes := map[string]func() *Cache{
		"empty": New,
		"memory only": func() *Cache {
			c := New()
			for i := rng.Intn(60); i >= 0; i-- {
				c.Store(randomKey(rng), randomResult(rng))
			}
			return c
		},
		"file only": func() *Cache {
			path, _ := randomFile(t, rng, 1+rng.Intn(60))
			return attach(t, path)
		},
		"memory shadowing the file": func() *Cache {
			path, keys := randomFile(t, rng, 1+rng.Intn(60))
			c := attach(t, path)
			for _, k := range keys {
				if rng.Intn(3) == 0 {
					c.Store(k, randomResult(rng))
				}
			}
			for i := rng.Intn(20); i >= 0; i-- {
				c.Store(randomKey(rng), randomResult(rng))
			}
			return c
		},
		"salvaged file": func() *Cache {
			path, _ := randomFile(t, rng, 2+rng.Intn(60))
			damage(t, path, func(data []byte) []byte { return data[:len(data)-footerSize-1-rng.Intn(indexEntrySize)] })
			c := attach(t, path)
			if !c.Disk().Salvaged() {
				t.Fatal("a torn index did not salvage")
			}
			c.Store(randomKey(rng), randomResult(rng))
			return c
		},
		"one poisoned record": func() *Cache {
			path, _ := randomFile(t, rng, 1+rng.Intn(60))
			damage(t, path, func(data []byte) []byte {
				poisoned, err := PoisonSnapshot(data)
				if err != nil {
					t.Fatal(err)
				}
				return poisoned
			})
			c := attach(t, path)
			c.Store(randomKey(rng), randomResult(rng))
			return c
		},
	}
	for name, shape := range shapes {
		for round := 0; round < 20; round++ {
			c := shape()
			want := encodePerRecordSnapshot(t, c)
			got, err := c.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, round %d: the writer wrote %d bytes that differ from the %d the encode-per-record writer wrote",
					name, round, len(got), len(want))
			}
			rejected := uint64(0)
			if name == "one poisoned record" {
				rejected = 1
			}
			if st := c.Stats(); st.Rejected != rejected {
				t.Fatalf("%s, round %d: %d records counted rejected, want %d", name, round, st.Rejected, rejected)
			}
		}
	}
}

// TestWriterCountsDroppedRecordRejectedOnce: a record the writer drops for
// its checksum is counted rejected — once, however many writes meet it —
// so the snapshot's Close warns about it and the file it saves no longer
// holds it.
func TestWriterCountsDroppedRecordRejectedOnce(t *testing.T) {
	path, data, _ := seededBinarySnapshot(t, "MD", "CS1", "MIP")
	poisoned, err := PoisonSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	warn := func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }
	c := New()
	s, err := Open(c, path, warn, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two pre-seeds and a delta export, as a sweep coordinator makes them.
	for i := 0; i < 2; i++ {
		if err := c.WriteBinaryTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteDeltaTo(io.Discard, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Rejected != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want the one poisoned record counted once and nothing simulated", st)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	want := path + ": rejected 1 corrupted cache entries"
	if len(warnings) != 1 || !strings.Contains(warnings[0], want) {
		t.Errorf("warnings %q, want one saying %q", warnings, want)
	}
	if n, _ := reloaded(t, path); n != 2 {
		t.Errorf("the saved snapshot holds %d entries, want the 2 that proved their checksums", n)
	}
}

// streamRecords is a snapshot stream: the header, the given records and an
// empty index (LoadStream reads no further than the index marker).
func streamRecords(recs ...[]byte) []byte {
	out := make([]byte, headerSize)
	copy(out, binMagic[:])
	binary.LittleEndian.PutUint32(out[4:8], binVersion)
	for _, r := range recs {
		out = append(out, r...)
	}
	return append(out, indexMarker)
}

// encodePerRecordCounts is what LoadStream reported before it imported
// records as bytes: each record's key spelled and its result decoded and
// verified — rejected if that fails — then stored, counted replaced when
// the cache (memory, disk or an earlier record of the stream) already
// served its key and added otherwise. It also returns the result each key
// ends up with.
func encodePerRecordCounts(t *testing.T, c *Cache, stream []byte) (added, replaced, rejected int, final map[string]core.Result) {
	t.Helper()
	served := map[string]bool{}
	for _, k := range c.Keys() {
		served[k] = true
	}
	final = map[string]core.Result{}
	for p := headerSize; stream[p] == recordMarker; {
		r, err := parseRecord(stream[p:])
		if err != nil {
			t.Fatal(err)
		}
		p += len(r.bytes)
		key := spellKey(r.key)
		var res core.Result
		err = r.check(resultWords(&res))
		switch {
		case err != nil:
			rejected++
		case served[key]:
			replaced++
		default:
			added++
		}
		if err == nil {
			served[key], final[key] = true, res
		}
	}
	return added, replaced, rejected, final
}

// TestLoadStreamCountsAsBefore: importing records as bytes reports the
// added/replaced/rejected counts decoding every record reported, and
// leaves the cache serving the same results, whatever the cache already
// held and whatever the stream carries.
func TestLoadStreamCountsAsBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = randomKey(rng)
	}
	record := func(key string, res core.Result) []byte { return encodeRecord(pack(t, key), &res) }
	results := map[string]core.Result{}
	var recs [][]byte
	for _, k := range keys {
		results[k] = randomResult(rng)
		recs = append(recs, record(k, results[k]))
	}
	poisoned := bytes.Clone(recs[3])
	poisoned[len(poisoned)-1] ^= 1
	holding := func(c *Cache) *Cache {
		for _, k := range keys[:20] {
			c.Store(k, results[k])
		}
		return c
	}
	onDisk := func() *Cache {
		path := filepath.Join(t.TempDir(), "held.snap")
		if err := holding(New()).SaveFile(path); err != nil {
			t.Fatal(err)
		}
		return attach(t, path)
	}
	streams := map[string][]byte{
		"all":                          streamRecords(recs...),
		"a poisoned record":            streamRecords(append(append([][]byte{}, recs[:3]...), poisoned, recs[4])...),
		"a key twice, different bytes": streamRecords(recs[5], record(keys[5], randomResult(rng)), recs[6]),
		"a key twice, same bytes":      streamRecords(recs[7], recs[7]),
		"a different result":           streamRecords(record(keys[8], randomResult(rng))),
	}
	caches := map[string]func() *Cache{
		"empty":                New,
		"holding it in memory": func() *Cache { return holding(New()) },
		"holding it on disk":   onDisk,
	}
	for sname, stream := range streams {
		for cname, mk := range caches {
			c := mk()
			wantAdded, wantReplaced, wantRejected, final := encodePerRecordCounts(t, c, stream)
			added, replaced, err := c.LoadStream(bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			if rejected := int(c.Stats().Rejected); added != wantAdded || replaced != wantReplaced || rejected != wantRejected {
				t.Errorf("%s into a cache %s: %d added, %d replaced, %d rejected; want %d, %d, %d",
					sname, cname, added, replaced, rejected, wantAdded, wantReplaced, wantRejected)
			}
			for k, want := range final {
				if got, ok := c.Peek(k); !ok || got != want {
					t.Errorf("%s into a cache %s: %s serves the wrong result", sname, cname, k)
				}
			}
		}
	}
}

// TestIdenticalReimportAllocatesNothingPerRecord: importing a snapshot the
// cache already holds record for record — what a worker kept across sweeps
// is sent every pre-seed — compares bytes and stores nothing: a fixed
// handful of allocations (the reader and its buffer), not one per record.
func TestIdenticalReimportAllocatesNothingPerRecord(t *testing.T) {
	data, err := os.ReadFile(buildFixture(t, fixtureEntries))
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	if added, _, err := c.LoadStream(bytes.NewReader(data)); err != nil || added != fixtureEntries {
		t.Fatalf("first import: %d added (%v)", added, err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, replaced, err := c.LoadStream(bytes.NewReader(data)); err != nil || replaced != fixtureEntries {
			t.Fatalf("re-import: %d replaced (%v)", replaced, err)
		}
	})
	if allocs > 16 {
		t.Errorf("re-importing %d identical records allocates %.0f objects, want a fixed few", fixtureEntries, allocs)
	}
	if st := c.Stats(); st.MemEntries != fixtureEntries || st.Rejected != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestExchangeConcurrent: imports, stores, lookups, full and delta writes
// on one cache at once — the memory tier's records are read outside the
// lock while others replace them. Run under -race in CI. Every write is a
// snapshot that loads, and afterwards the cache writes what the
// encode-per-record writer writes.
func TestExchangeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	path, keys := randomFile(t, rng, 40)
	c := attach(t, path)
	bodies := make([][]byte, 4)
	for i := range bodies {
		src := New()
		for _, k := range keys[:20] {
			src.Store(k, randomResult(rng))
		}
		var err error
		if bodies[i], err = src.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	stored := make([]string, 50)
	for i := range stored {
		stored[i] = randomKey(rng)
	}
	mark := c.Mark()
	var wg sync.WaitGroup
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(i int) error { _, _, err := c.LoadStream(bytes.NewReader(bodies[i%len(bodies)])); return err })
	run(func(i int) error { c.Store(stored[i], fixtureResult(i)); return nil })
	run(func(i int) error { c.Peek(keys[i%len(keys)]); return nil })
	for _, delta := range []bool{false, true} {
		run(func(int) error {
			var buf bytes.Buffer
			var err error
			if delta {
				err = c.WriteDeltaTo(&buf, mark)
			} else {
				err = c.WriteBinaryTo(&buf)
			}
			if err == nil {
				_, _, err = New().LoadStream(bytes.NewReader(buf.Bytes()))
			}
			return err
		})
	}
	wg.Wait()
	got, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encodePerRecordSnapshot(t, c)) {
		t.Error("after concurrent use the writer and the encode-per-record writer disagree")
	}
	var delta bytes.Buffer
	if err := c.WriteDeltaTo(&delta, mark); err != nil {
		t.Fatal(err)
	}
	d := New()
	if added, _, err := d.LoadStream(bytes.NewReader(delta.Bytes())); err != nil || added != len(stored) {
		t.Errorf("the delta carries %d results (%v), want the %d stored", added, err, len(stored))
	}
}
