package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/ubench"
)

// snapshotOf simulates the named micro-benchmarks on the public A53 model
// into a fresh cache, saves it under dir and returns the file's path.
func snapshotOf(t *testing.T, dir, name string, benches ...string) string {
	t.Helper()
	c := simcache.New()
	for _, n := range benches {
		b, ok := ubench.ByName(n)
		if !ok {
			t.Fatalf("no benchmark %s", n)
		}
		tr, err := b.Trace(ubench.Options{Scale: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(sim.PublicA53(), tr); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name)
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCacheMerge: `racesim cache merge` joins snapshot files last writer
// wins into the bytes a cache holding every input's records saves; an
// input it cannot read — missing, or of another format version — fails
// the merge with an error naming it and writes nothing; an input with a
// corrupted record is merged without that record, and the report names
// the file and counts the rejection.
func TestCacheMerge(t *testing.T) {
	dir := t.TempDir()
	a := snapshotOf(t, dir, "a.snap", "MD", "CS1")
	b := snapshotOf(t, dir, "b.snap", "CS1", "MIP")
	merge := func(inputs ...string) (out, report string, err error) {
		out = filepath.Join(t.TempDir(), "merged.snap")
		var stderr bytes.Buffer
		err = cacheMerge(append([]string{"-o", out}, inputs...), &stderr)
		return out, stderr.String(), err
	}

	out, report, err := merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := simcache.New()
	for _, in := range []string{a, b} {
		data, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := want.LoadStream(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, wantBytes) {
		t.Errorf("merged snapshot differs from the union of its inputs (read error %v)", err)
	}
	for _, line := range []string{a + ": 2 entries (2 new, 0 replaced)\n", b + ": 2 entries (1 new, 1 replaced)\n", "wrote 3 entries to " + out + "\n"} {
		if !strings.Contains(report, line) {
			t.Errorf("report lacks %q:\n%s", line, report)
		}
	}

	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Clone(data)
	stale[4] = 99 // the header's version word
	poisoned, err := simcache.PoisonSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"stale.snap": stale, "poisoned.snap": poisoned} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range []string{filepath.Join(dir, "missing.snap"), filepath.Join(dir, "stale.snap")} {
		out, _, err := merge(a, in)
		if err == nil || !strings.Contains(err.Error(), in) {
			t.Errorf("merging %s: error %v, want one naming it", in, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("merging %s: output written (stat %v)", in, err)
		}
	}
	poisonedPath := filepath.Join(dir, "poisoned.snap")
	_, report, err = merge(a, poisonedPath)
	if err != nil {
		t.Fatalf("merging a corrupted record: %v", err)
	}
	line := regexp.MustCompile(regexp.QuoteMeta(poisonedPath) + `: 1 entries \(\d new, \d replaced, 1 rejected by checksum\)\n`)
	if !line.MatchString(report) {
		t.Errorf("merging a corrupted record: report does not name the file and its rejection:\n%s", report)
	}
}
