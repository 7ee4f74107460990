package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testUnits(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("scenario/unit=%d", i)
	}
	return ids
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	ids := testUnits(3)
	fp := sweepFingerprint(Options{Scenario: "table1", Seed: 7}, ids)

	jnl, err := openJournal(path, fp, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := jnl.append(i, id, fmt.Sprintf("artifact for %s\nwith newline\n", id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.close(); err != nil {
		t.Fatal(err)
	}

	got, err := readJournal(path, fp, len(ids))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d units, want 3", len(got))
	}
	for i, id := range ids {
		if want := fmt.Sprintf("artifact for %s\nwith newline\n", id); got[i] != want {
			t.Errorf("unit %d: %q, want %q", i, got[i], want)
		}
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	got, err := readJournal(filepath.Join(t.TempDir(), "absent"), "fp", 3)
	if err != nil || len(got) != 0 {
		t.Errorf("missing journal: %d units, err %v; want 0, nil", len(got), err)
	}
}

func TestJournalWrongSweepIsExplicitError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	ids := testUnits(2)
	fpA := sweepFingerprint(Options{Scenario: "table1", Seed: 1}, ids)
	fpB := sweepFingerprint(Options{Scenario: "table1", Seed: 2}, ids)
	if fpA == fpB {
		t.Fatal("distinct options share a fingerprint")
	}
	jnl, err := openJournal(path, fpA, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	jnl.append(0, ids[0], "a")
	jnl.close()
	if _, err := readJournal(path, fpB, len(ids)); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("foreign journal error = %v, want a different-sweep rejection", err)
	}
	// A file that is not a journal at all is rejected, not replayed.
	other := filepath.Join(t.TempDir(), "not-a-journal")
	os.WriteFile(other, []byte(`{"some":"json"}`+"\n"), 0o644)
	if _, err := readJournal(other, fpA, len(ids)); err == nil {
		t.Error("non-journal file accepted")
	}
}

// TestJournalTornAtEveryByte is the crash-point property: a journal
// truncated at any byte offset (the write that was in flight when the
// coordinator died) recovers a clean prefix of completed units — never an
// error, never a corrupted artifact, never a unit the full journal does
// not contain.
func TestJournalTornAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")
	ids := testUnits(3)
	fp := sweepFingerprint(Options{Scenario: "fig2", Events: 4000}, ids)
	jnl, err := openJournal(path, fp, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for i, id := range ids {
		want[i] = fmt.Sprintf("unit %s rendered {\"nested\": %d}\n", id, i)
		if err := jnl.append(i, id, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	jnl.close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	headerLen := strings.IndexByte(string(full), '\n') + 1
	torn := filepath.Join(dir, "torn.journal")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readJournal(torn, fp, len(ids))
		if cut < headerLen-1 {
			// A torn *header* (truncated before its closing brace, down to
			// an empty file — openJournal renames a synced header into
			// place, so no crash of ours leaves one) is an unreadable
			// journal — must refuse, not silently resume with zero units
			// against a mismatched sweep.
			if err == nil {
				t.Errorf("cut %d (mid-header): accepted with %d units", cut, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("cut %d: %v", cut, err)
			continue
		}
		// Whatever survived is a correct subset...
		for i, a := range got {
			if a != want[i] {
				t.Errorf("cut %d: unit %d artifact corrupted: %q", cut, i, a)
			}
		}
		// ...and a dense prefix: record i survives only if i-1 did (appends
		// are ordered and reading stops at the tear).
		for i := 1; i < len(ids); i++ {
			if _, ok := got[i]; ok {
				if _, prev := got[i-1]; !prev {
					t.Errorf("cut %d: unit %d recovered without unit %d", cut, i, i-1)
				}
			}
		}
	}
}

// TestJournalCompactionClearsTornTail proves resuming rewrites the file:
// after openJournal with the recovered map, the journal on disk parses
// cleanly end-to-end (no garbage beneath later appends).
func TestJournalCompactionClearsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")
	ids := testUnits(3)
	fp := sweepFingerprint(Options{Scenario: "table2"}, ids)
	jnl, err := openJournal(path, fp, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	jnl.append(0, ids[0], "first")
	jnl.close()
	// Simulate a torn append: garbage half-record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"unit":1,"id":"scenario/unit=1","artifact":"tor`)
	f.Close()

	recovered, err := readJournal(path, fp, len(ids))
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d units past a torn tail, want 1", len(recovered))
	}
	jnl, err = openJournal(path, fp, ids, recovered)
	if err != nil {
		t.Fatal(err)
	}
	jnl.append(1, ids[1], "second")
	jnl.append(2, ids[2], "third")
	jnl.close()

	final, err := readJournal(path, fp, len(ids))
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 3 || final[0] != "first" || final[1] != "second" || final[2] != "third" {
		t.Errorf("post-compaction journal recovered %v", final)
	}
}

func TestFingerprintCoversSelectionSizingAndUnits(t *testing.T) {
	base := Options{Scenario: "all", Scale: 0.01, Events: 60000, Budget1: 2500, Budget2: 3500, Seed: 0}
	ids := testUnits(2)
	fp := sweepFingerprint(base, ids)
	for name, mutate := range map[string]func(*Options, *[]string){
		"scenario": func(o *Options, _ *[]string) { o.Scenario = "table1" },
		"scale":    func(o *Options, _ *[]string) { o.Scale = 0.02 },
		"events":   func(o *Options, _ *[]string) { o.Events = 1 },
		"budget1":  func(o *Options, _ *[]string) { o.Budget1 = 1 },
		"budget2":  func(o *Options, _ *[]string) { o.Budget2 = 1 },
		"seed":     func(o *Options, _ *[]string) { o.Seed = 9 },
		"units":    func(_ *Options, u *[]string) { *u = testUnits(3) },
	} {
		o, u := base, append([]string(nil), ids...)
		mutate(&o, &u)
		if sweepFingerprint(o, u) == fp {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}
