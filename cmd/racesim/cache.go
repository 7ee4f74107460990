package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"racesim/internal/simcache"
)

// cmdCache inspects and joins simulation-cache snapshots outside the
// cluster path: `racesim cache stats FILE...` and
// `racesim cache merge -o OUT FILE...`.
func cmdCache(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: racesim cache stats FILE... | racesim cache merge -o OUT FILE...")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "stats":
		return cacheStats(rest)
	case "merge":
		return cacheMerge(rest, os.Stderr)
	default:
		return fmt.Errorf("unknown cache subcommand %q (want stats or merge)", sub)
	}
}

// mergeFile streams the snapshot at path into c record by record,
// reporting what it added, replaced and dropped by checksum. Unlike a run's
// cache file (which starts cold when absent or of another version), an
// operator-named file must load: a missing file or a version mismatch is an
// error naming it, never a silent "0 entries".
func mergeFile(c *simcache.Cache, path string) (added, replaced int, rejected uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	before := c.Stats().Rejected
	if added, replaced, err = c.LoadStream(f); err != nil {
		return 0, 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return added, replaced, c.Stats().Rejected - before, nil
}

func cacheStats(args []string) error {
	fs := flag.NewFlagSet("racesim cache stats", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: racesim cache stats FILE...")
	}
	for _, path := range fs.Args() {
		if err := statOne(path); err != nil {
			return err
		}
	}
	return nil
}

// statOne prints one snapshot's audit line: format and version, entry
// count split by tier (the snapshot attaches mmap-backed and stays on
// disk), total and per-entry bytes, index size, and any checksum
// rejections or salvage.
func statOne(path string) error {
	c := simcache.New()
	if _, _, err := c.LoadChecked(path); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	st := c.Stats()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	// Every record still lives on disk; verify each one the way a lookup
	// would, so `stats` audits what `run` will trust.
	m := c.Disk()
	bad := 0
	m.RangeKeys(func(key string, _ int) bool {
		if _, err := m.Get(key); err != nil {
			bad++
		}
		return true
	})
	fmt.Printf("%s: binary v%d, %d entries (%d in-memory, %d on-disk), %d bytes (%.1f bytes/entry), index %d bytes",
		path, m.Version(), st.Entries, st.MemEntries, st.DiskEntries,
		fi.Size(), bytesPerEntry(fi.Size(), st.Entries), m.IndexBytes())
	if m.Salvaged() {
		fmt.Printf(", salvaged")
	}
	if bad > 0 {
		fmt.Printf(", %d rejected by checksum", bad)
	}
	fmt.Println()
	return nil
}

func bytesPerEntry(size int64, entries int) float64 {
	if entries == 0 {
		return 0
	}
	return float64(size) / float64(entries)
}

// cacheMerge joins snapshot files into one, reporting each input on
// stderr.
func cacheMerge(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("racesim cache merge", flag.ExitOnError)
	out := fs.String("o", "", "write the merged snapshot here (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("usage: racesim cache merge -o OUT FILE...")
	}
	if err := simcache.ValidatePath(*out); err != nil {
		return err
	}
	merged := simcache.New()
	for _, path := range fs.Args() {
		added, replaced, rejected, err := mergeFile(merged, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: %d entries (%d new, %d replaced", path, added+replaced, added, replaced)
		if rejected > 0 {
			fmt.Fprintf(stderr, ", %d rejected by checksum", rejected)
		}
		fmt.Fprintln(stderr, ")")
	}
	if err := merged.SaveFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d entries to %s\n", merged.Stats().Entries, *out)
	return nil
}
