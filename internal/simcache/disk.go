package simcache

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// ValidatePath reports whether path could plausibly be written by
// SaveFile: its parent must be an existing directory. Drivers call this
// before a long run so a typo'd -cache path fails up front instead of
// after the work is done.
func ValidatePath(path string) error {
	dir := filepath.Dir(path)
	info, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("simcache: cache directory %s: %w", dir, err)
	}
	if !info.IsDir() {
		return fmt.Errorf("simcache: cache directory %s is not a directory", dir)
	}
	return nil
}

// LoadChecked validates that path is plausibly writable (so a typo'd cache
// flag fails before hours of work, not after), attaches or merges the
// snapshot, and reports both accepted and checksum-rejected entry counts.
// A run opens its cache file with Open, which builds on it; this is the
// bare load for tools that only inspect a file.
func (c *Cache) LoadChecked(path string) (accepted int, rejected uint64, err error) {
	if err := ValidatePath(path); err != nil {
		return 0, 0, err
	}
	before := c.Stats().Rejected
	n, err := c.LoadFile(path)
	if err != nil {
		return 0, 0, err
	}
	return n, c.Stats().Rejected - before, nil
}

// SaveInterval is how often a long run saves its snapshot while it runs:
// when one of its units finishes once SaveInterval has passed since the
// last save. It bounds what a kill -9 loses to the units finished in the
// last SaveInterval plus the ones still running. A scenario run
// (scenario.RunSaving) and a distributed sweep (cluster.Run) both save on
// it.
const SaveInterval = 10 * time.Second

// Snapshot is a cache file opened for one run: the one way every driver
// that takes a cache path loads it and saves it back. A nil *Snapshot is
// "no cache file": Save does nothing, Close returns the error it is given.
type Snapshot struct {
	cache      *Cache
	path       string
	warn, note func(format string, args ...any)
	opened     Stats  // the cache after the load
	saved      *Stats // the cache at the last save; nil before the first
}

// Open opens the cache file at path for a run of c (an empty path: none, a
// nil Snapshot). It validates the path and attaches the file mmap-backed
// (LoadChecked). A missing file, or a snapshot of another format version
// (with a warning), starts cold; a file that is not a snapshot is an error
// naming it and is left alone. warn is for what a caller always prints —
// a stale format, records rejected by their checksum — and note for what a
// quiet run keeps to itself: "cache: loaded N entries from F".
func Open(c *Cache, path string, warn, note func(format string, args ...any)) (*Snapshot, error) {
	if path == "" {
		return nil, nil
	}
	n, rejected, err := c.LoadChecked(path)
	var stale *StaleFormatError
	switch {
	case errors.As(err, &stale):
		warn("ignoring snapshot %s (format %d); starting cold", stale.Path, stale.Format)
	case err != nil:
		return nil, err
	default:
		if rejected > 0 {
			warn("%s: rejected %d corrupted cache entries", path, rejected)
		}
		note("cache: loaded %d entries from %s", n, path)
	}
	return &Snapshot{cache: c, path: path, warn: warn, note: note, opened: c.Stats()}, nil
}

// Save writes the file if the cache gained anything — an entry, a
// simulation, a rejected record — since the open or the last save, and
// notes "cache: saved N entries to F". A save with nothing new since the
// last one does nothing and says nothing. The first save leaves a file that
// already is the snapshot alone (SaveFile) and writes none for an empty
// cache: a run that simulated nothing creates no file.
func (s *Snapshot) Save() error { return s.save(true) }

func (s *Snapshot) save(note bool) error {
	if s == nil {
		return nil
	}
	now, last := s.cache.Stats(), s.opened
	if s.saved != nil {
		last = *s.saved
	}
	changed := now.Entries != last.Entries || now.Misses != last.Misses || now.Rejected != last.Rejected
	if s.saved != nil && !changed {
		return nil
	}
	if changed || now.Entries > 0 {
		if err := s.cache.SaveFile(s.path); err != nil {
			return fmt.Errorf("simcache: save %s: %w", s.path, err)
		}
	}
	s.saved = &now
	if note {
		s.note("cache: saved %d entries to %s", now.Entries, s.path)
	}
	return nil
}

// Close is the save on the way out of a run that ended with err: Save's,
// for a finished run (nothing, after a Save with nothing new since); for a
// failed or cancelled one it keeps what was simulated too and says so in
// the error, "err (saved N cache entries to F)". It then warns about the
// records found corrupt since the open — a snapshot checks each when it is
// first touched. The cache stays usable.
func (s *Snapshot) Close(err error) error {
	if s == nil {
		return err
	}
	if err == nil {
		err = s.save(true)
	} else if serr := s.save(false); serr != nil {
		err = errors.Join(err, serr)
	} else if n := s.saved.Entries; n > 0 {
		err = fmt.Errorf("%w (saved %d cache entries to %s)", err, n, s.path)
	}
	if rejected := s.cache.Stats().Rejected - s.opened.Rejected; rejected > 0 {
		s.warn("%s: rejected %d corrupted cache entries", s.path, rejected)
	}
	return err
}

// StaleFormatError reports a binary snapshot written in a different
// version of the format. Loading one starts cold (the entries are never
// mis-read), but silently would look identical to "no snapshot": Open
// detects it and warns that the snapshot was ignored, so an operator
// pointing a warm run at a pre-migration cache learns why every unit
// re-simulated.
type StaleFormatError struct {
	Path   string // the snapshot file
	Format int    // the version it declares
}

func (e *StaleFormatError) Error() string {
	return fmt.Sprintf("simcache: %s: snapshot format %d (current %d); ignoring it and starting cold",
		e.Path, e.Format, binVersion)
}

// LoadFile loads a snapshot written by SaveFile into the cache. The
// snapshot is attached as the mmap-backed disk tier — cold start parses
// only the index; a record is decoded when asked for and stays on disk —
// unless a tier is already attached, in which case its records are merged
// into memory. A missing file is not an error (first run is simply cold); a
// snapshot of another version loads nothing and returns a *StaleFormatError
// the caller can log or ignore; any other file that is not a binary
// snapshot is an error naming it — never a cold start, so never overwritten
// by the save that follows one. Entries failing the checksum are dropped
// and counted in Stats.Rejected (lazily, for the attached tier); the number
// of loaded entries is returned.
func (c *Cache) LoadFile(path string) (int, error) {
	if c == nil {
		return 0, nil
	}
	m, err := OpenMapped(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.disk == nil {
		c.disk = m
		c.shadowed = 0
		for e := c.lru.Front(); e != nil; e = e.Next() {
			ce := e.Value.(*centry)
			if r, _ := parseRecord(ce.rec); m.holds(&r, ce.hash) {
				c.shadowed++
			}
		}
		// What memory already holds the file may not.
		c.dirty = c.lru.Len() > 0
		n := m.Count()
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()
	// A disk tier is already attached: import this snapshot's records into
	// memory instead, record by record, as LoadStream does.
	defer m.Close()
	n := 0
	for _, e := range m.index {
		if r, err := m.recordAt(e); err == nil && c.importRecord(r.bytes) != importRejected {
			n++
		}
	}
	return n, nil
}

// SaveFile streams every stored result (memory merged with the attached
// disk tier) to path in the binary snapshot format, atomically and
// durably: records stream to a temp file — the full snapshot never
// exists in memory — which is fsynced before the rename and the parent
// directory after it, so a machine crash at any point leaves either the
// previous snapshot or the complete new one. Renaming over a currently
// mapped snapshot is safe: the old inode stays mapped until Close.
//
// Saving back to the file the attached tier was opened from writes
// nothing while that file already is the snapshot — it is still in place
// and untouched, its index was intact (no salvage), and nothing has been
// inserted, replaced or rejected since the load: a warm run that only
// looked results up leaves its snapshot alone. Any other path is always
// written.
func (c *Cache) SaveFile(path string) error {
	if c == nil || c.savedAs(path) {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".simcache-*")
	if err != nil {
		return err
	}
	if err := c.WriteBinaryTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
}

// savedAs reports whether the file at path is the one the attached disk
// tier maps, unmodified, and already holds everything the cache does.
func (c *Cache) savedAs(path string) bool {
	c.mu.Lock()
	disk, dirty := c.disk, c.dirty
	c.mu.Unlock()
	if disk == nil || dirty || disk.Salvaged() {
		return false
	}
	now, err := os.Stat(path)
	return err == nil && os.SameFile(now, disk.info) &&
		now.Size() == disk.info.Size() && now.ModTime().Equal(disk.info.ModTime())
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Some filesystems refuse to fsync directories; that is not a
// data-loss path (the rename itself is still atomic), so those errors
// are swallowed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
