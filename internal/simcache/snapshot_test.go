package simcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSnapshotSavesOnlyWhatChanged walks one cache file through a run: no
// path is no snapshot; a save before anything was simulated creates no
// file; a save after a simulation writes once, and a second save with
// nothing new since writes nothing and says nothing; a run that fails
// after more work saves it and says so in its error.
func TestSnapshotSavesOnlyWhatChanged(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	if s, err := Open(New(), "", logf, logf); s != nil || err != nil {
		t.Fatalf("Open with no path: %v, %v; want no snapshot", s, err)
	}
	var none *Snapshot
	boom := errors.New("boom")
	if none.Save() != nil || none.Close(boom) != boom {
		t.Error("a nil snapshot saved or changed the error")
	}

	path := filepath.Join(t.TempDir(), "run.snap")
	c := New()
	s, err := Open(c, path, logf, logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a save with nothing simulated: stat %v, want no file", err)
	}
	populate(t, c, "MD")
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	lines = nil
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.Stat(path); err != nil || !os.SameFile(first, again) || len(lines) != 0 {
		t.Errorf("a save with nothing new rewrote the file or said %q (stat error %v)", lines, err)
	}

	populate(t, c, "CS1")
	err = s.Close(boom)
	if want := fmt.Sprintf("boom (saved 2 cache entries to %s)", path); !errors.Is(err, boom) || err.Error() != want {
		t.Errorf("failed run: error %q, want %q", err, want)
	}
	if n, err := New().LoadFile(path); err != nil || n != 2 {
		t.Errorf("failed run saved %d entries (%v), want 2", n, err)
	}
}

// TestSnapshotWarnsAboutRecordsRejectedDuringTheRun: a record found
// corrupt when the run first touches it is warned about on the way out,
// naming the file.
func TestSnapshotWarnsAboutRecordsRejectedDuringTheRun(t *testing.T) {
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
	for _, key := range c.Keys() {
		c.Peek(key)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	want := path + ": rejected 1 corrupted cache entries"
	if len(warnings) != 1 || !strings.Contains(warnings[0], want) {
		t.Errorf("warnings %q, want one saying %q", warnings, want)
	}
}
