package simcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"racesim/internal/sim"
)

// populate runs a couple of distinct units so the cache has entries.
func populate(t *testing.T, c *Cache, names ...string) {
	t.Helper()
	for _, name := range names {
		if _, err := c.Run(sim.PublicA53(), testTrace(t, name)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMarshalLoadBytesRoundTrip(t *testing.T) {
	src := New()
	populate(t, src, "MD", "CS1")
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	dst := New()
	added, replaced, err := dst.LoadStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || replaced != 0 {
		t.Errorf("added %d replaced %d, want 2/0", added, replaced)
	}
	// A second load of the same bytes replaces in place (last-writer-wins).
	added, replaced, err = dst.LoadStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || replaced != 2 {
		t.Errorf("re-load: added %d replaced %d, want 0/2", added, replaced)
	}
	if dst.Stats().Entries != 2 {
		t.Errorf("entries = %d, want 2", dst.Stats().Entries)
	}

	// Marshal is deterministic: equal caches serialize to equal bytes.
	again, err := dst.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("round-tripped cache marshals to different bytes")
	}
}

func TestLoadBytesRejectsCorruption(t *testing.T) {
	src := New()
	populate(t, src, "MD")

	// Snapshot poisoned in transit: the record's key-binding
	// checksum no longer proves, so the merge drops exactly that record.
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := PoisonSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := New()
	added, _, err := dst.LoadStream(bytes.NewReader(poisoned))
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Errorf("poisoned entry accepted (added %d)", added)
	}
	if st := dst.Stats(); st.Rejected != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 rejected, 0 entries", st)
	}

	// Anything that is not a binary snapshot of this version is a hard
	// error, not a silent cold: federation peers must speak the format. The
	// JSON generation of snapshots is one such body now.
	future := bytes.Clone(data)
	future[4] = 99
	for what, body := range map[string][]byte{
		"garbage":                 []byte("not a snapshot"),
		"legacy JSON snapshot":    []byte(`{"format": 1, "entries": []}`),
		"snapshot cut in header":  data[:headerSize/2],
		"future-version snapshot": future,
	} {
		if added, replaced, err := dst.LoadStream(bytes.NewReader(body)); err == nil || added+replaced != 0 {
			t.Errorf("%s: merged %d entries, error %v", what, added+replaced, err)
		}
	}
	if st := dst.Stats(); st.Entries != 0 {
		t.Errorf("refused bodies left %d entries", st.Entries)
	}
}

// TestMergeLastWriterWins merges snapshot files the way `racesim cache
// merge` does: each streamed record by record off the file into one cache.
func TestMergeLastWriterWins(t *testing.T) {
	merge := func(dst, src *Cache) (added, replaced int) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "src.snap")
		if err := src.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		added, replaced, err = dst.LoadStream(f)
		if err != nil {
			t.Fatal(err)
		}
		return added, replaced
	}
	a, b := New(), New()
	populate(t, a, "MD")
	populate(t, b, "MD", "CS1")

	if added, replaced := merge(a, b); added != 1 || replaced != 1 {
		t.Errorf("merge: added %d replaced %d, want 1/1", added, replaced)
	}
	if a.Stats().Entries != 2 {
		t.Errorf("entries = %d, want 2", a.Stats().Entries)
	}
	// Merging an empty snapshot is a no-op.
	if added, replaced := merge(a, New()); added+replaced != 0 {
		t.Errorf("empty merge: %d/%d", added, replaced)
	}
}

// TestDeltaCarriesWhatWasStoredSinceTheMark: a delta from a mark holds
// what simulations stored after it — not what was there before, and not
// what an import stored after it.
func TestDeltaCarriesWhatWasStoredSinceTheMark(t *testing.T) {
	c := New()
	populate(t, c, "MD")
	baseline := map[string]bool{}
	for _, k := range c.Keys() {
		baseline[k] = true
	}
	mark := c.Mark()
	populate(t, c, "CS1")
	other := New()
	populate(t, other, "MIP")
	seed, err := other.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if added, _, err := c.LoadStream(bytes.NewReader(seed)); err != nil || added != 1 {
		t.Fatalf("import: %d added (%v), want 1", added, err)
	}

	var delta bytes.Buffer
	if err := c.WriteDeltaTo(&delta, mark); err != nil {
		t.Fatal(err)
	}
	dst := New()
	added, _, err := dst.LoadStream(bytes.NewReader(delta.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Errorf("delta carried %d entries, want exactly the post-mark simulation", added)
	}
	imported := other.Keys()[0]
	for _, k := range dst.Keys() {
		if baseline[k] || k == imported {
			t.Errorf("delta leaked %s", k)
		}
	}
}
