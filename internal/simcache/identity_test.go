package simcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"racesim/internal/sim"
	"racesim/internal/trace"
)

// TestTraceIdentityRoundTripsEveryWayACacheTravels: an identity recorded
// in one cache is read back, bit for bit, from a snapshot opened on disk,
// from snapshot bytes merged in (the federation pre-seed and delta path)
// and from a snapshot file streamed in (`racesim cache merge`) —
// always under the build that wrote it, never under another. Recording
// and looking up move no hit or miss counter.
func TestTraceIdentityRoundTripsEveryWayACacheTravels(t *testing.T) {
	md, mip := testTrace(t, "MD"), testTrace(t, "MIP")
	warm := trace.New("w", true, eventsOf(t, md)[:7]...)
	src := New()
	populate(t, src, "MD")
	ids := src.TraceIdentities("build-a")
	ids.RecordIdentity("key md", md)
	ids.RecordIdentity("key mip", mip)
	ids.RecordIdentity("key warm", warm)
	if st := src.Stats(); st.Entries != 4 || st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after three identities beside one result: %+v", st)
	}

	bin := filepath.Join(t.TempDir(), "c.snap")
	if err := src.SaveFile(bin); err != nil {
		t.Fatal(err)
	}
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	travelled := map[string]*Cache{"memory": src, "snapshot file": New()}
	if _, _, err := travelled["snapshot file"].LoadChecked(bin); err != nil {
		t.Fatal(err)
	}
	defer travelled["snapshot file"].Close()
	travelled["snapshot bytes"] = New()
	if _, _, err := travelled["snapshot bytes"].LoadStream(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	travelled["streamed file"] = New()
	f, err := os.Open(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := travelled["streamed file"].LoadStream(f); err != nil {
		t.Fatal(err)
	}

	for name, c := range travelled {
		before := c.Stats()
		for key, tr := range map[string]*trace.Trace{"key md": md, "key mip": mip, "key warm": warm} {
			got, ok := c.TraceIdentities("build-a").LookupIdentity(key)
			if !ok || got != tr.Identity() {
				t.Errorf("%s: identity of %q = %+v (found %v), want %+v", name, key, got, ok, tr.Identity())
			}
			if _, ok := c.TraceIdentities("build-b").LookupIdentity(key); ok {
				t.Errorf("%s: build-b was served build-a's identity of %q", name, key)
			}
		}
		if _, ok := c.TraceIdentities("build-a").LookupIdentity("key nobody recorded"); ok {
			t.Errorf("%s: found an identity nobody recorded", name)
		}
		after := c.Stats()
		if after.Hits != before.Hits || after.Misses != before.Misses || after.Entries != 4 {
			t.Errorf("%s: lookups moved the counters from %+v to %+v", name, before, after)
		}
		// The result beside the identities is still served.
		if _, ok := c.Peek(Key(sim.PublicA53(), md)); !ok {
			t.Errorf("%s: the simulation result is gone", name)
		}
	}
}

// TestLookingUpIdentitiesLeavesSnapshotAlone: a run that only asked what
// its traces are saves back without touching the file; recording one for
// another build makes the save write, and both builds' identities are in
// what it writes.
func TestLookingUpIdentitiesLeavesSnapshotAlone(t *testing.T) {
	md := testTrace(t, "MD")
	seed := New()
	seed.TraceIdentities("build-a").RecordIdentity("k", md)
	path := filepath.Join(t.TempDir(), "ids.snap")
	if err := seed.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened := aged(t, path)
	c := New()
	if _, _, err := c.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.TraceIdentities("build-a").LookupIdentity("k"); !ok {
		t.Fatal("identity not found in the opened snapshot")
	}
	if _, ok := c.TraceIdentities("build-b").LookupIdentity("k"); ok {
		t.Fatal("another build's identity was trusted")
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if !untouched(t, path, opened) {
		t.Error("looking identities up made the save rewrite the snapshot")
	}
	c.TraceIdentities("build-b").RecordIdentity("k", md)
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if untouched(t, path, opened) {
		t.Error("a recorded identity was not saved")
	}
	if n, _ := reloaded(t, path); n != 2 {
		t.Errorf("the rewritten snapshot holds %d entries, want both builds' identities", n)
	}
}

// TestNoBuildNoIdentities: a build that cannot name itself, or no cache at
// all, remembers nothing and digests nothing.
func TestNoBuildNoIdentities(t *testing.T) {
	c := New()
	for name, ids := range map[string]*TraceIdentities{
		"no build": c.TraceIdentities(""),
		"no cache": (*Cache)(nil).TraceIdentities("build-a"),
	} {
		tr := trace.New("t", false, eventsOf(t, testTrace(t, "MD"))...)
		ids.RecordIdentity("k", tr)
		if _, ok := ids.LookupIdentity("k"); ok {
			t.Errorf("%s: an identity was remembered", name)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("the cache holds %d entries", st.Entries)
	}
}
