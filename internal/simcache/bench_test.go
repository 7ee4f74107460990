package simcache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// Storage-tier benchmarks: cold open and lookup latency of the binary
// mmap-backed snapshot over a fixture big enough (10k entries) that an
// open which touched every record, not only the index, would show. The
// entries are fabricated (no simulation), so CI's 1-iteration bench smoke
// stays cheap. Recorded in BENCH_cache.json.

const fixtureEntries = 10_000

func fixtureKey(i int) string {
	// The "hex64:hex64" shape of real config-fingerprint:trace-digest
	// keys, so records use the packed 64-byte key form.
	return fmt.Sprintf("%064x:%064x", uint64(i), uint64(i)*2654435761)
}

func fixtureResult(i int) core.Result {
	var r core.Result
	r.Cycles = uint64(i)*97 + 13
	r.Instructions = uint64(i)*31 + 7
	r.StallData = uint64(i) % 1000
	return r
}

// buildFixture fabricates an n-entry cache, plus a fabricated result under
// each of the given keys, and saves it, returning the snapshot's path.
func buildFixture(b testing.TB, n int, more ...string) string {
	b.Helper()
	c := New()
	for i := 0; i < n; i++ {
		c.Store(fixtureKey(i), fixtureResult(i))
	}
	for i, key := range more {
		c.Store(key, fixtureResult(n+i))
	}
	binPath := filepath.Join(b.TempDir(), "snap.bin")
	if err := c.SaveFile(binPath); err != nil {
		b.Fatal(err)
	}
	return binPath
}

func fileBytesPerEntry(b *testing.B, path string, entries int) float64 {
	b.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return float64(fi.Size()) / float64(entries)
}

// BenchmarkSnapshotColdOpenMmap is the serve/sweep restart path: map
// the snapshot, parse only the index, resolve one lookup. Cost is
// O(index), independent of record bytes.
func BenchmarkSnapshotColdOpenMmap(b *testing.B) {
	binPath := buildFixture(b, fixtureEntries)
	probe := fixtureKey(fixtureEntries / 2)
	want := fixtureResult(fixtureEntries / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(binPath)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Get(probe)
		if err != nil {
			b.Fatal(err)
		}
		if res != want {
			b.Fatal("probe decoded wrong result")
		}
		m.Close()
	}
	b.StopTimer()
	b.ReportMetric(fileBytesPerEntry(b, binPath, fixtureEntries), "bytes_per_entry")
}

// BenchmarkMappedLookup is the steady-state miss-check latency against
// an open mapped snapshot: hash, binary-search the index, verify the
// key, decode and checksum the record.
func BenchmarkMappedLookup(b *testing.B) {
	binPath := buildFixture(b, fixtureEntries)
	m, err := OpenMapped(binPath)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Get(fixtureKey(i % fixtureEntries)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotExchange is a sweep's pre-seed, both ends of it, over
// the 10k-entry fixture: export writes the snapshot from a mapped tier (the
// coordinator), import_empty merges it into an empty cache (a fresh
// worker), import_identical into a cache already holding it. held is what
// replaces export and import_identical for a worker kept from the last
// sweep: the coordinator lists its key hashes, the worker answers that it
// lacks none of them, and no record is sent.
func BenchmarkSnapshotExchange(b *testing.B) {
	src := New()
	if _, _, err := src.LoadChecked(buildFixture(b, fixtureEntries)); err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	data, err := src.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fixtureEntries), "ns/record")
	}
	b.Run("export", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := src.WriteBinaryTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("import_empty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if added, _, err := New().LoadStream(bytes.NewReader(data)); err != nil || added != fixtureEntries {
				b.Fatalf("%d added (%v)", added, err)
			}
		}
		perRecord(b)
	})
	b.Run("import_identical", func(b *testing.B) {
		dst := New()
		if _, _, err := dst.LoadStream(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, replaced, err := dst.LoadStream(bytes.NewReader(data)); err != nil || replaced != fixtureEntries {
				b.Fatalf("%d replaced (%v)", replaced, err)
			}
		}
		perRecord(b)
	})
	b.Run("held", func(b *testing.B) {
		dst := New()
		if _, _, err := dst.LoadStream(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if missing := dst.Missing(src.KeyHashes()); len(missing) != 0 {
				b.Fatalf("the worker lacks %d records", len(missing))
			}
		}
		perRecord(b)
	})
}

// BenchmarkRunBatchMappedGrid is what a warm run makes a thousand of: a
// small configs x traces grid (2 x 11, a perturbation step over the Table
// II workloads) handed to RunBatch at parallelism 2 and answered pair by
// pair from the mapped snapshot. It covers everything a disk hit costs
// below the caller: two fingerprints, 22 packed keys and index hashes, 22
// lookups decoded in place — all on the caller's goroutine, since no pair
// is left for the worker pool — into storage handed back grid after grid,
// as validate.Score recycles it.
func BenchmarkRunBatchMappedGrid(b *testing.B) {
	cfgs := []sim.Config{sim.PublicA53(), sim.PublicA72()}
	var trs []*trace.Trace
	for _, name := range []string{"MD", "MC", "MIP", "CS1", "CS3", "CCh", "CCe", "CCm", "DP1d", "DPT", "ED1"} {
		trs = append(trs, testTrace(b, name))
	}
	var keys []string
	for _, cfg := range cfgs {
		for _, tr := range trs {
			keys = append(keys, Key(cfg, tr))
		}
	}
	c := New()
	if _, _, err := c.LoadChecked(buildFixture(b, fixtureEntries, keys...)); err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var rs []core.Result
	for i := 0; i < b.N; i++ {
		var err error
		if rs, err = c.RunBatch(context.Background(), cfgs, trs, 2, rs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	pairs := float64(b.N * len(keys))
	if st := c.Stats(); st.Misses != 0 || float64(st.Hits) != pairs {
		b.Fatalf("stats = %+v, want %.0f hits and no simulation", st, pairs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pairs, "allocs/pair")
}
