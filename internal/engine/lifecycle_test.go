package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"racesim/internal/simcache"
)

// tripContext ends itself with err once Err has been asked more than n
// times. Every job kind asks between simulations, so a job run under it
// fails, or is cancelled, after it has simulated something, at a point set
// by the job's own progress rather than by the clock.
type tripContext struct {
	context.Context
	left atomic.Int64
	err  error
	once sync.Once
	done chan struct{}
}

func tripAfter(n int64, err error) *tripContext {
	c := &tripContext{Context: context.Background(), err: err, done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *tripContext) Done() <-chan struct{} { return c.done }

func (c *tripContext) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return c.err
}

// snapshotEntries is how many entries the snapshot file at path holds.
func snapshotEntries(t *testing.T, path string) int {
	t.Helper()
	c := simcache.New()
	defer c.Close()
	n, err := c.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSnapshotLifecycleEveryKind: every job kind that takes a cache path
// opens, checks and saves it the same way. A cold run over a snapshot of
// another format version warns, even when quiet, and saves everything it
// simulated; a warm run that adds nothing leaves the file's inode and mtime
// alone; a record corrupted on disk is warned about, even when quiet; and
// a run that fails or is cancelled part-way keeps what it simulated and
// says so in its error.
func TestSnapshotLifecycleEveryKind(t *testing.T) {
	errBoom := errors.New("boom")
	stale, err := simcache.New().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	stale[4] = 99 // the header's version word
	kinds := []struct {
		name, prefix string // the job and its stderr prefix
		job          Job
		trip         int64 // context checks before the job is ended part-way
	}{
		{"run", "racesim", Job{Kind: KindRun, Run: &RunJob{Ubench: "MD,CS1,CS3,MIP,ML2,STc", Scale: 0.001}}, 11},
		{"validate", "validate", Job{Kind: KindValidate, Validate: &ValidateJob{
			Core: "a53", Budget1: 40, Budget2: 40, Scale: 0.001, Quiet: true}}, 5},
		{"ubench -compare", "ubench", Job{Kind: KindUbench, Ubench: &UbenchJob{Compare: "all", Scale: 0.001}}, 11},
		{"experiments", "experiments", Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
			Scenario: "table1,fig2", Scale: 0.001, Events: 1000, Budget1: 40, Budget2: 40, Quiet: true}}, 50},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(ctx context.Context, path string) (*Result, error) {
				return ExecuteContext(ctx, k.job, Options{CachePath: path, Parallelism: 1, Capture: true})
			}

			// Succeeds, cold over a stale snapshot.
			path := filepath.Join(dir, "cache.snap")
			if err := os.WriteFile(path, stale, 0o644); err != nil {
				t.Fatal(err)
			}
			cold, err := run(context.Background(), path)
			if err != nil {
				t.Fatal(err)
			}
			if want := k.prefix + ": ignoring snapshot " + path + " (format 99); starting cold\n"; !strings.Contains(cold.Log, want) {
				t.Errorf("cold run over a stale snapshot: stderr lacks %q:\n%s", want, cold.Log)
			}
			if n := snapshotEntries(t, path); cold.CacheStats.Misses == 0 || n != cold.CacheStats.Entries {
				t.Errorf("cold run: %d simulations, %d entries, %d saved", cold.CacheStats.Misses, cold.CacheStats.Entries, n)
			}

			// Succeeds, warm: nothing simulated, nothing written.
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := run(context.Background(), path)
			if err != nil {
				t.Fatal(err)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if warm.CacheStats.Misses != 0 || warm.Artifact != cold.Artifact {
				t.Errorf("warm run: %d simulations, artifact equal %v", warm.CacheStats.Misses, warm.Artifact == cold.Artifact)
			}
			if !os.SameFile(before, after) || !before.ModTime().Equal(after.ModTime()) {
				t.Error("a warm run that added nothing rewrote the snapshot")
			}

			// Succeeds over a record corrupted on disk.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			poisoned, err := simcache.PoisonSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, poisoned, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := run(context.Background(), path)
			if err != nil {
				t.Fatal(err)
			}
			if want := k.prefix + ": " + path + ": rejected 1 corrupted cache entries\n"; !strings.Contains(res.Log, want) {
				t.Errorf("run over a corrupted record: stderr lacks %q:\n%s", want, res.Log)
			}
			if res.Artifact != cold.Artifact {
				t.Error("run over a corrupted record rendered other bytes")
			}

			// Fails, or is cancelled, part-way.
			for _, end := range []error{errBoom, context.Canceled} {
				path := filepath.Join(dir, fmt.Sprintf("%v.snap", end))
				res, err := run(tripAfter(k.trip, end), path)
				if !errors.Is(err, end) {
					t.Fatalf("ended with %v: got error %v", end, err)
				}
				if res.CacheStats.Misses == 0 || res.CacheStats.Misses >= cold.CacheStats.Misses {
					t.Errorf("ended with %v after %d simulations, want some of the cold run's %d", end, res.CacheStats.Misses, cold.CacheStats.Misses)
				}
				if want := fmt.Sprintf(" (saved %d cache entries to %s)", res.CacheStats.Entries, path); !strings.HasSuffix(err.Error(), want) {
					t.Errorf("ended with %v: error %q does not end %q", end, err, want)
				}
				if n := snapshotEntries(t, path); n != res.CacheStats.Entries {
					t.Errorf("ended with %v: %d entries, %d saved", end, res.CacheStats.Entries, n)
				}
			}
		})
	}

	// A job that simulates nothing creates no file.
	path := filepath.Join(t.TempDir(), "list.snap")
	if _, err := Execute(Job{Kind: KindUbench, Ubench: &UbenchJob{List: true}}, Options{CachePath: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("ubench -list with a cache path: stat %v, want no file", err)
	}
}
