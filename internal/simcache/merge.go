package simcache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file is the federation surface of the cache: snapshots as bytes
// (instead of files) plus a checksum-verified merge. The distributed
// sweep coordinator (internal/cluster) ships snapshots between workers
// over HTTP — pre-seeding a round, collecting per-worker deltas at drain
// — and `racesim cache merge` joins operator-held snapshot files. Every
// entry crossing a cache boundary re-proves its key-binding checksum, so
// a corrupted worker snapshot cannot poison the federated cache.
//
// Snapshots marshal in the binary format; every loader sniffs and also
// accepts the legacy JSON format, so merges may mix generations freely
// (LWW semantics are per-record and format-blind).

// Keys returns every key the cache can serve — materialized entries
// merged with the attached disk tier's index — sorted. The sorted order
// is the snapshot serialization order, so two caches with equal Keys()
// and equal entries marshal to identical bytes.
func (c *Cache) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	seen := make(map[string]bool, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
		seen[k] = true
	}
	disk := c.disk
	c.mu.Unlock()
	disk.RangeKeys(func(key string, _ int) bool {
		if !seen[key] {
			keys = append(keys, key)
		}
		return true
	})
	sort.Strings(keys)
	return keys
}

// Marshal serializes every stored result in the binary snapshot
// format — the same bytes SaveFile writes.
func (c *Cache) Marshal() ([]byte, error) {
	return c.MarshalFiltered(nil)
}

// MarshalFiltered serializes the snapshot, omitting keys for which skip
// returns true. A nil skip keeps everything. This is the delta-export
// primitive: a serve worker marshals with skip = "key was pre-seeded or
// on disk", so the coordinator receives only what the worker computed
// itself. Prefer WriteBinaryTo when a writer is available — it streams
// records instead of buffering the snapshot.
func (c *Cache) MarshalFiltered(skip func(key string) bool) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.WriteBinaryTo(&buf, skip); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// MarshalLegacyJSON serializes the snapshot in the legacy
// checksummed-JSON format — byte-identical to what pre-binary SaveFile
// wrote, for `racesim cache convert` round-trips. (Not named
// MarshalJSON: that would make *Cache a json.Marshaler and hijack any
// incidental json.Marshal of a struct embedding one.)
func (c *Cache) MarshalLegacyJSON() ([]byte, error) {
	if c == nil {
		return json.Marshal(file{Format: fileFormat})
	}
	src := c.entrySource(nil)
	f := file{Format: fileFormat, Entries: make([]entry, 0, len(src.keys))}
	for _, k := range src.keys {
		res, ok := src.fetch(k)
		if !ok {
			continue
		}
		sum, err := checksum(k, res)
		if err != nil {
			return nil, fmt.Errorf("simcache: %w", err)
		}
		f.Entries = append(f.Entries, entry{Key: k, Result: res, Sum: sum})
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// LoadBytes merges snapshot bytes — either format, sniffed — into the
// cache with checksum verification and last-writer-wins semantics: an
// incoming entry that passes its checksum replaces a stored entry under
// the same key (the federation contract — for a deterministic simulator
// both sides hold the same result, so the overwrite is a no-op in
// value). Entries failing the checksum are dropped and counted in
// Stats.Rejected. A snapshot in an unknown format is an error: unlike a
// stale disk checkpoint, bytes handed to LoadBytes were produced by a
// peer that should speak a known format.
func (c *Cache) LoadBytes(data []byte) (added, replaced int, err error) {
	if c == nil {
		return 0, 0, fmt.Errorf("simcache: LoadBytes on a nil cache")
	}
	if IsBinarySnapshot(data) {
		return c.readBinaryStream(bytes.NewReader(data))
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, 0, fmt.Errorf("simcache: snapshot: %w", err)
	}
	if f.Format != fileFormat {
		return 0, 0, fmt.Errorf("simcache: snapshot format %d, want %d", f.Format, fileFormat)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range f.Entries {
		sum, err := checksum(e.Key, e.Result)
		if err != nil || sum != e.Sum {
			c.rejectLocked()
			continue
		}
		if c.insertLocked(e.Key, e.Result) {
			replaced++
		} else {
			added++
		}
	}
	return added, replaced, nil
}

// LoadStream merges a snapshot from r — either format, sniffed — with
// LoadBytes semantics, but without ever buffering the whole snapshot
// for the binary format: records are verified and merged one at a time.
// (The legacy JSON format has no streaming decoder; it buffers.)
func (c *Cache) LoadStream(r io.Reader) (added, replaced int, err error) {
	if c == nil {
		return 0, 0, fmt.Errorf("simcache: LoadStream on a nil cache")
	}
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(4)
	if err == nil && IsBinarySnapshot(magic) {
		return c.readBinaryStream(br)
	}
	data, rerr := io.ReadAll(br)
	if rerr != nil {
		return 0, 0, rerr
	}
	return c.LoadBytes(data)
}

// PoisonSnapshot returns a copy of snapshot bytes (either format) with
// one entry's checksum corrupted — a snapshot that parses cleanly but
// must lose exactly one entry to checksum rejection on load. It exists
// for the chaos injector and for tests proving that every snapshot
// consumer (LoadFile, LoadBytes, POST /v1/cache/snapshot) actually
// verifies checksums; an empty snapshot cannot be poisoned and errors.
func PoisonSnapshot(data []byte) ([]byte, error) {
	if IsBinarySnapshot(data) {
		return poisonBinary(data)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("simcache: poison: %w", err)
	}
	if len(f.Entries) == 0 {
		return nil, fmt.Errorf("simcache: poison: snapshot has no entries")
	}
	e := &f.Entries[len(f.Entries)/2]
	sum := []byte(e.Sum)
	// Flip one hex digit; the checksum is hex so '0' <-> 'f' always
	// changes the value.
	if sum[0] == 'f' {
		sum[0] = '0'
	} else {
		sum[0] = 'f'
	}
	e.Sum = string(sum)
	out, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// poisonBinary flips the last checksum byte of the middle record. The
// index still locates the record; its key-binding checksum no longer
// proves, so loaders reject exactly that record.
func poisonBinary(data []byte) ([]byte, error) {
	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("simcache: poison: snapshot too small")
	}
	ftr := data[len(data)-footerSize:]
	if [4]byte(ftr[28:32]) != footerMagic {
		return nil, fmt.Errorf("simcache: poison: bad footer")
	}
	indexOff := binary.LittleEndian.Uint64(ftr[0:8])
	count := binary.LittleEndian.Uint64(ftr[8:16])
	if count == 0 {
		return nil, fmt.Errorf("simcache: poison: snapshot has no entries")
	}
	if indexOff < headerSize || indexOff+1+count*indexEntrySize > uint64(len(data)) {
		return nil, fmt.Errorf("simcache: poison: bad index bounds")
	}
	// Index entries are hash-sorted, not offset-sorted; the "middle"
	// record here is by index order, which is as good as any.
	p := indexOff + 1 + (count/2)*indexEntrySize
	off := binary.LittleEndian.Uint64(data[p+8 : p+16])
	size := binary.LittleEndian.Uint32(data[p+16 : p+20])
	if off+uint64(size) > indexOff || size < 9 {
		return nil, fmt.Errorf("simcache: poison: bad record bounds")
	}
	out := bytes.Clone(data)
	out[off+uint64(size)-1] ^= 0xff // last byte of the record's sum
	return out, nil
}

// Merge merges every entry of other into c, last-writer-wins on
// identical keys. The entries round-trip through the checksummed
// snapshot format, so the same verification that guards disk and
// network snapshots guards in-memory merges.
func (c *Cache) Merge(other *Cache) (added, replaced int, err error) {
	if c == nil {
		return 0, 0, fmt.Errorf("simcache: Merge into a nil cache")
	}
	if other == nil {
		return 0, 0, nil
	}
	data, err := other.Marshal()
	if err != nil {
		return 0, 0, err
	}
	return c.LoadBytes(data)
}
