package main

import (
	"flag"
	"fmt"
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
		return cacheMerge(rest)
	default:
		return fmt.Errorf("unknown cache subcommand %q (want stats or merge)", sub)
	}
}

// loadSnapshot reads one snapshot file into a fresh cache, reporting
// accepted and checksum-rejected entry counts. Unlike the warm-start path
// (which tolerates absent or stale-version snapshots by starting cold), an
// operator-named file must load: a version mismatch is an error, never a
// silent "0 entries".
func loadSnapshot(path string) (c *simcache.Cache, accepted int, rejected uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	c = simcache.New()
	accepted, _, err = c.LoadBytes(data)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return c, accepted, c.Stats().Rejected, nil
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

func cacheMerge(args []string) error {
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
		other, accepted, rejected, err := loadSnapshot(path)
		if err != nil {
			return err
		}
		added, replaced, err := merged.Merge(other)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "%s: %d entries (%d new, %d replaced", path, accepted, added, replaced)
		if rejected > 0 {
			fmt.Fprintf(os.Stderr, ", %d rejected by checksum", rejected)
		}
		fmt.Fprintln(os.Stderr, ")")
	}
	if err := merged.SaveFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d entries to %s\n", merged.Stats().Entries, *out)
	return nil
}
