package simcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"racesim/internal/sim"
)

// seededSnapshot simulates one unit and saves a snapshot, returning its
// path and the pristine bytes.
func seededSnapshot(t *testing.T) (string, []byte) {
	t.Helper()
	c := New()
	if _, err := c.Run(sim.PublicA53(), testTrace(t, "MD")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestLoadFileStaleFormatIsTypedCondition(t *testing.T) {
	// Binary snapshot from a future format generation: bump the version
	// word in the header.
	path, data := seededSnapshot(t)
	future := append([]byte(nil), data...)
	future[4], future[5], future[6], future[7] = 99, 0, 0, 0
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New()
	n, err := c.LoadFile(path)
	var stale *StaleFormatError
	if !errors.As(err, &stale) {
		t.Fatalf("stale binary snapshot load error = %v, want a *StaleFormatError", err)
	}
	if stale.Path != path || stale.Format != 99 {
		t.Errorf("stale error carries %q format %d, want %q format 99", stale.Path, stale.Format, path)
	}
	if n != 0 || c.Stats().Entries != 0 {
		t.Errorf("stale snapshot loaded %d entries (%d cached); must start cold", n, c.Stats().Entries)
	}
	// LoadChecked surfaces the same typed condition for drivers.
	if _, _, err := c.LoadChecked(path); !errors.As(err, &stale) {
		t.Errorf("LoadChecked stale error = %v, want *StaleFormatError", err)
	}
	if msg, want := err.Error(), fmt.Sprintf("format 99 (current %d)", binVersion); !strings.Contains(msg, want) {
		t.Errorf("stale error %q does not say %q", msg, want)
	}
	t.Run("version 1 file", staleVersion1)
}

// staleVersion1 checks that a snapshot the version 1 writer saved
// (testdata/v1.snap: one simulated result and one trace identity) opens as
// a stale format — one warning, no entry loaded, none rejected — and that
// the run's save overwrites it with a current one.
func staleVersion1(t *testing.T) {
	v1, err := os.ReadFile("testdata/v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	warn := func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }
	c := New()
	snap, err := Open(c, path, warn, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 0 {
		t.Errorf("a version 1 snapshot left %+v; want a cold cache, nothing rejected", st)
	}
	cfg, tr := sim.PublicA53(), testTrace(t, "MD")
	res, err := c.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(nil); err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "(format 1); starting cold") {
		t.Errorf("warnings = %q, want one about format 1", warnings)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, err := m.Get(Key(cfg, tr)); m.Version() != binVersion || m.Count() != 1 || err != nil || got != res {
		t.Errorf("saved over the version 1 file: version %d, %d entries, result %v; want version %d holding the run's result",
			m.Version(), m.Count(), err, binVersion)
	}
}

func TestLoadFileTruncatedSnapshotErrors(t *testing.T) {
	// A snapshot cut inside its header is no snapshot and errors, naming
	// the file. (One cut anywhere after the header salvages instead — see
	// adversity_test.go.)
	path, data := seededSnapshot(t)
	if err := os.WriteFile(path, data[:headerSize/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c := New()
	if _, err := c.LoadFile(path); err == nil {
		t.Error("truncated snapshot loaded without error")
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("truncation error does not name the file: %v", err)
	}
	if c.Stats().Entries != 0 {
		t.Error("truncated snapshot leaked entries into the cache")
	}
}

func TestLoadFileGarbageSnapshotErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("\x00\x01 not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New()
	if _, err := c.LoadFile(path); err == nil {
		t.Error("garbage snapshot loaded without error")
	}
}

func TestLoadFileCorruptedEntryRejectedCounted(t *testing.T) {
	// Snapshots verify lazily: attach indexes the record, and the
	// corruption surfaces as a rejection (plus a re-simulation) on first
	// touch.
	bpath, bdata := seededSnapshot(t)
	bpoisoned, err := PoisonSnapshot(bdata)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bpath, bpoisoned, 0o644); err != nil {
		t.Fatal(err)
	}
	cb := New()
	if _, _, err := cb.LoadChecked(bpath); err != nil {
		t.Fatal(err)
	}
	want, err := sim.PublicA53().Run(testTrace(t, "MD"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cb.Run(sim.PublicA53(), testTrace(t, "MD"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("poisoned record served a wrong result instead of re-simulating")
	}
	if st := cb.Stats(); st.Rejected != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats after touching poisoned record = %+v, want 1 rejected, 1 miss", st)
	}
}

func TestSaveFileReplacesAtomically(t *testing.T) {
	// Two saves to the same path leave exactly the newest snapshot and no
	// temp-file litter (the crash-safety half — fsync before rename — is
	// not observable in-process, but litter and torn writes are).
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	c := New()
	if _, err := c.Run(sim.PublicA53(), testTrace(t, "MD")); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(sim.PublicA72(), testTrace(t, "MD")); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory after two saves: %v, want only snap.json", names)
	}
	reload := New()
	if n, err := reload.LoadFile(path); err != nil || n != 2 {
		t.Errorf("reload: %d entries, err %v; want 2, nil", n, err)
	}
}
