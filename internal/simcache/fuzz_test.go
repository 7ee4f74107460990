package simcache

import (
	"bytes"
	"encoding/binary"
	"os"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoadStream: a sweep resumed from its cache file has merged whatever
// bytes its workers sent back through LoadStream, so the stream parser must
// never panic, and every record it accepts must survive a write and a
// re-read: the cache written with WriteBinaryTo loads into a fresh cache
// with the same keys and results, and writes back the same bytes. Seeds
// live in testdata/fuzz/FuzzLoadStream: a full snapshot, a delta, a
// PoisonSnapshot copy of the full snapshot and a truncated one.
func FuzzLoadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New()
		added, _, _ := c.LoadStream(bytes.NewReader(data))
		if n := c.Stats().Entries; added != n {
			t.Fatalf("LoadStream reported %d records added, the cache holds %d", added, n)
		}
		var out bytes.Buffer
		if err := c.WriteBinaryTo(&out); err != nil {
			t.Fatalf("accepted records do not write: %v", err)
		}
		again := New()
		if _, _, err := again.LoadStream(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("written snapshot does not load: %v", err)
		}
		keys := c.Keys()
		if got := again.Keys(); len(got) != len(keys) {
			t.Fatalf("round trip holds %d keys, want %d", len(got), len(keys))
		}
		for _, k := range keys {
			want, ok1 := c.Peek(k)
			got, ok2 := again.Peek(k)
			if !ok1 || !ok2 || got != want {
				t.Fatalf("key %q: round trip gives %+v (%v), want %+v (%v)", k, got, ok2, want, ok1)
			}
		}
		var back bytes.Buffer
		if err := again.WriteBinaryTo(&back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), out.Bytes()) {
			t.Fatal("the re-read snapshot writes different bytes")
		}
	})
}

// FuzzOpenMapped: the mmap tier reads whatever file a -cache flag names —
// its index, or, when the footer or index is damaged, a salvage scan of
// the records — so neither may panic, and whatever opens must serve
// consistently: every key it lists looks up (and decodes or is rejected),
// the cache it is attached to lacks none of its own key hashes, and the
// snapshot that cache writes loads into a fresh cache that writes back the
// same bytes. The bytes are parsed as OpenMapped parses a mapped file.
// Seeds live in testdata/fuzz/FuzzOpenMapped: a good file, one with a torn
// tail and one with a flipped index byte.
func FuzzOpenMapped(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &Mapped{data: data}
		if m.parse("fuzz") != nil {
			return
		}
		m.RangeKeys(func(key string, _ int) bool {
			m.Get(key)
			return true
		})
		c := New()
		c.disk = m
		if miss := c.Missing(c.KeyHashes()); len(miss) != 0 {
			t.Fatalf("the cache lacks %d of its own key hashes", len(miss))
		}
		var out bytes.Buffer
		if err := c.WriteBinaryTo(&out); err != nil {
			t.Fatalf("the attached tier does not write: %v", err)
		}
		again := New()
		if _, _, err := again.LoadStream(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("the written snapshot does not load: %v", err)
		}
		var back bytes.Buffer
		if err := again.WriteBinaryTo(&back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), out.Bytes()) {
			t.Fatal("the re-read snapshot writes different bytes")
		}
	})
}

// TestFuzzSeedsAtCurrentFormat: the corpus seeds meant to load — a full
// snapshot, a delta and a good file — are in the current format and load,
// so a format change cannot leave both fuzzers exercising only the
// stale-version branch.
func TestFuzzSeedsAtCurrentFormat(t *testing.T) {
	seed := func(name string) []byte {
		t.Helper()
		file, err := os.ReadFile("testdata/fuzz/" + name)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(file), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")\n")
		data, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a []byte corpus entry", name)
		}
		if v := binary.LittleEndian.Uint32([]byte(data[4:8])); !IsBinarySnapshot([]byte(data)) || v != binVersion {
			t.Fatalf("%s: snapshot version %d, want %d", name, v, binVersion)
		}
		return []byte(data)
	}
	for _, name := range []string{"FuzzLoadStream/full", "FuzzLoadStream/delta"} {
		c := New()
		if added, _, err := c.LoadStream(bytes.NewReader(seed(name))); err != nil || added == 0 || c.Stats().Rejected != 0 {
			t.Errorf("%s: added %d, %d rejected, error %v; want every record loaded", name, added, c.Stats().Rejected, err)
		}
	}
	m := &Mapped{data: seed("FuzzOpenMapped/good")}
	if err := m.parse("good"); err != nil || m.Salvaged() || m.Count() == 0 {
		t.Errorf("FuzzOpenMapped/good: %v, salvaged %v, %d records; want an intact index", err, m.Salvaged(), m.Count())
	}
}
