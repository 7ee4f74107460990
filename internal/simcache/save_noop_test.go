package simcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"racesim/internal/sim"
)

// openedSnapshot writes a three-entry binary snapshot (mutated by damage
// first, if given), ages its mtime so that any rewrite shows, and opens
// it into a fresh cache. It returns the path, the file as opened and the
// cache.
func openedSnapshot(t *testing.T, damage func([]byte) []byte) (string, os.FileInfo, *Cache) {
	t.Helper()
	path, data, _ := seededBinarySnapshot(t, "MD", "CS1", "MIP")
	if damage != nil {
		if err := os.WriteFile(path, damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	info := aged(t, path)
	c := New()
	if _, _, err := c.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return path, info, c
}

// aged moves path's mtime into the past, so that any rewrite shows, and
// returns the file as it now is.
func aged(t *testing.T, path string) os.FileInfo {
	t.Helper()
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// untouched reports whether path still names the very file (same inode,
// same mtime, same size) that was opened.
func untouched(t *testing.T, path string, opened os.FileInfo) bool {
	t.Helper()
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return os.SameFile(now, opened) && now.ModTime().Equal(opened.ModTime()) && now.Size() == opened.Size()
}

// reloaded opens path into a new cache and returns its entry count and
// whether the open had to salvage.
func reloaded(t *testing.T, path string) (entries int, salvaged bool) {
	t.Helper()
	c := New()
	if _, _, err := c.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Stats().Entries, c.Disk().Salvaged()
}

// lookUpAll answers the snapshot's three units from the cache.
func lookUpAll(t *testing.T, c *Cache) {
	t.Helper()
	for _, name := range []string{"MD", "CS1", "MIP"} {
		if _, err := c.Run(sim.PublicA53(), testTrace(t, name)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveFileLeavesUnchangedSnapshotAlone: a run that only looked
// results up — three disk hits through Run, then Get and Peek, none of
// which keeps anything — has nothing dirty and saves back to the file it
// opened without touching its inode or mtime. Saving anywhere else writes,
// and what it writes is the same bytes.
func TestSaveFileLeavesUnchangedSnapshotAlone(t *testing.T) {
	path, opened, c := openedSnapshot(t, nil)
	lookUpAll(t, c)
	if _, ok := c.Peek(Key(sim.PublicA53(), testTrace(t, "MD"))); !ok {
		t.Fatal("Get missed a stored unit")
	}
	if _, ok := c.Peek(Key(sim.PublicA53(), testTrace(t, "CS1"))); !ok {
		t.Fatal("Peek missed a stored unit")
	}
	if st := c.Stats(); st.Hits != 3 || st.Misses != 0 || st.MemEntries != 0 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 disk hits and nothing held in memory", st)
	}
	if c.dirty {
		t.Error("looking results up dirtied the cache")
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if !untouched(t, path, opened) {
		t.Error("a clean cache rewrote the snapshot it was opened from")
	}
	// The same file under another spelling of its path is still that file.
	if err := c.SaveFile(filepath.Join(filepath.Dir(path), ".", filepath.Base(path))); err != nil {
		t.Fatal(err)
	}
	if !untouched(t, path, opened) {
		t.Error("a clean cache rewrote its snapshot under a second spelling of the path")
	}

	other := filepath.Join(t.TempDir(), "copy.bin")
	if err := c.SaveFile(other); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(path)
	got, err := os.ReadFile(other)
	if err != nil {
		t.Fatalf("saving a clean cache to another path wrote nothing: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the copy saved to another path differs from the snapshot")
	}
	if !untouched(t, path, opened) {
		t.Error("saving to another path touched the opened snapshot")
	}
}

// TestSaveFileWritesWhenSomethingChanged: every way the cache and its
// file can part ways makes the next save a real one.
func TestSaveFileWritesWhenSomethingChanged(t *testing.T) {
	t.Run("new entry", func(t *testing.T) {
		path, opened, c := openedSnapshot(t, nil)
		lookUpAll(t, c)
		if _, err := c.Run(sim.PublicA72(), testTrace(t, "MD")); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if untouched(t, path, opened) {
			t.Fatal("snapshot not rewritten after a new entry")
		}
		if n, _ := reloaded(t, path); n != 4 {
			t.Errorf("rewritten snapshot holds %d entries, want 4", n)
		}
	})
	t.Run("replaced entry", func(t *testing.T) {
		path, opened, c := openedSnapshot(t, nil)
		key := Key(sim.PublicA53(), testTrace(t, "MD"))
		res, _ := c.Peek(key)
		res.Cycles++
		if !c.Store(key, res) {
			t.Fatal("Store did not report a replacement")
		}
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if untouched(t, path, opened) {
			t.Fatal("snapshot not rewritten after a replaced entry")
		}
		re := New()
		if _, err := re.LoadFile(path); err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got, _ := re.Peek(key); got != res {
			t.Error("rewritten snapshot does not hold the replacement")
		}
	})
	t.Run("rejected record", func(t *testing.T) {
		path, opened, c := openedSnapshot(t, func(data []byte) []byte {
			poisoned, err := PoisonSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			return poisoned
		})
		// Peek everything: the poisoned record is rejected, nothing is
		// simulated or inserted.
		for _, k := range c.Keys() {
			c.Peek(k)
		}
		if st := c.Stats(); st.Rejected != 1 || st.Misses != 0 {
			t.Fatalf("stats = %+v, want exactly one rejection and no simulation", st)
		}
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if untouched(t, path, opened) {
			t.Fatal("snapshot with a rejected record not rewritten")
		}
		if n, _ := reloaded(t, path); n != 2 {
			t.Errorf("rewritten snapshot holds %d entries, want the 2 that proved their checksums", n)
		}
	})
	t.Run("salvaged tier", func(t *testing.T) {
		path, opened, c := openedSnapshot(t, func(data []byte) []byte {
			return data[:len(data)-footerSize-5] // torn index tail
		})
		if !c.Disk().Salvaged() {
			t.Fatal("torn snapshot did not salvage")
		}
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if untouched(t, path, opened) {
			t.Fatal("salvaged snapshot not rewritten")
		}
		if n, salvaged := reloaded(t, path); n != 3 || salvaged {
			t.Errorf("rewritten snapshot: %d entries, salvaged %v; want 3 under an intact index", n, salvaged)
		}
	})
	t.Run("file removed underneath", func(t *testing.T) {
		path, _, c := openedSnapshot(t, nil)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if n, _ := reloaded(t, path); n != 3 {
			t.Errorf("snapshot saved after removal holds %d entries, want 3", n)
		}
	})
	t.Run("file replaced underneath", func(t *testing.T) {
		path, _, c := openedSnapshot(t, nil)
		// Another writer renames a different (one-entry) snapshot over it.
		otherPath, _, _ := seededBinarySnapshot(t, "MD")
		if err := os.Rename(otherPath, path); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if n, _ := reloaded(t, path); n != 3 {
			t.Errorf("snapshot saved over a replacement holds %d entries, want this cache's 3", n)
		}
	})
	t.Run("file modified in place", func(t *testing.T) {
		path, opened, c := openedSnapshot(t, nil)
		// Same inode, but someone wrote to it since (only the mtime says
		// so): no longer provably the snapshot that was opened.
		now := time.Now()
		if err := os.Chtimes(path, now, now); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if after, _ := os.Stat(path); os.SameFile(after, opened) {
			t.Fatal("snapshot modified in place not rewritten")
		}
		if n, _ := reloaded(t, path); n != 3 {
			t.Errorf("rewritten snapshot holds %d entries, want 3", n)
		}
	})
	t.Run("memory held entries before the load", func(t *testing.T) {
		path, data, _ := seededBinarySnapshot(t, "MD")
		c := New()
		if _, err := c.Run(sim.PublicA72(), testTrace(t, "MD")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.LoadChecked(path); err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if now, _ := os.ReadFile(path); bytes.Equal(now, data) {
			t.Fatal("entries held before the load were not saved")
		}
		if n, _ := reloaded(t, path); n != 2 {
			t.Errorf("saved snapshot holds %d entries, want 2", n)
		}
	})
}
