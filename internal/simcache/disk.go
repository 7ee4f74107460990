package simcache

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
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

// LoadChecked is the driver-facing load path shared by every binary:
// validate that path is plausibly writable (so a typo'd cache flag fails
// before hours of work, not after), attach or merge the snapshot, and
// report both accepted and checksum-rejected entry counts so callers can
// warn about corruption without re-deriving it from Stats.
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

// StaleFormatError reports a binary snapshot written in a different
// version of the format. Loading one starts cold (the entries are never
// mis-read), but silently would look identical to "no snapshot": drivers
// are expected to detect it with errors.As and log that the snapshot was
// ignored, so an operator pointing a warm run at a pre-migration cache
// learns why every unit re-simulated.
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
		for k := range c.entries {
			if m.Has(k) {
				c.shadowed++
			}
		}
		// What memory already holds the file may not.
		c.dirty = len(c.entries) > 0
		n := m.Count()
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()
	// A disk tier is already attached: store this snapshot's records in
	// memory instead (checksum-verified record by record).
	defer m.Close()
	added, replaced := 0, 0
	m.RangeKeys(func(key string, _ int) bool {
		res, err := m.Get(key)
		if err != nil {
			c.countRejected()
			return true
		}
		if c.Store(key, res) {
			replaced++
		} else {
			added++
		}
		return true
	})
	return added + replaced, nil
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
	if err := c.WriteBinaryTo(tmp, nil); err != nil {
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
