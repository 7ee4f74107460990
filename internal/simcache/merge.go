package simcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// This file is the federation surface of the cache: snapshots as bytes
// (instead of files), merged with checksum verification by LoadStream. The
// distributed sweep coordinator (internal/cluster) ships snapshots between
// workers over HTTP — pre-seeding a round, collecting per-worker deltas at
// drain — and `racesim cache merge` joins operator-held snapshot files. Every
// entry crossing a cache boundary re-proves its key-binding checksum, so
// a corrupted worker snapshot cannot poison the federated cache.

// Keys returns every key the cache can serve — the memory tier's entries
// merged with the attached disk tier's index — sorted. The sorted order
// is the snapshot serialization order, so two caches with equal Keys()
// and equal entries marshal to identical bytes.
func (c *Cache) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	keys := make([]string, 0, c.lru.Len())
	seen := make(map[string]bool, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		r, _ := parseRecord(e.Value.(*centry).rec)
		k, _ := r.key() // a stored record's key unpacks
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

// KeyHashes returns the index hash of every key the cache can serve,
// ascending and without repeats: the memory tier's, kept beside each record,
// merged with the attached disk tier's index, which holds them sorted. No
// key is unpacked and no record read. It is the question a sweep
// coordinator asks a worker before pre-seeding it (Missing), and the
// hashes WriteSubsetTo selects by.
func (c *Cache) KeyHashes() []uint64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	disk := c.disk
	out := make([]uint64, 0, c.lru.Len()+disk.Count())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*centry).hash)
	}
	c.mu.Unlock()
	if disk != nil {
		for _, e := range disk.index {
			out = append(out, e.hash)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Missing returns the positions in hashes — key hashes, ascending — of
// those the cache cannot serve (see KeyHashes), ascending. A hash the cache
// holds may be another key's (a 64-bit collision), and a record it holds
// may be corrupt on disk: either way the record is not sent to it, and it
// simulates the pair when asked for it — a simulation, never a wrong
// result.
func (c *Cache) Missing(hashes []uint64) []int {
	held := c.KeyHashes()
	out := []int{}
	j := 0
	for i, h := range hashes {
		for j < len(held) && held[j] < h {
			j++
		}
		if j == len(held) || held[j] != h {
			out = append(out, i)
		}
	}
	return out
}

// Marshal serializes every stored result in the binary snapshot
// format — the same bytes SaveFile writes. Prefer WriteBinaryTo when a
// writer is available: it streams records instead of buffering the
// snapshot.
func (c *Cache) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := c.WriteBinaryTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadBytes merges snapshot bytes into the cache with checksum
// verification and last-writer-wins semantics: an incoming entry that
// passes its checksum replaces a stored entry under the same key (the
// federation contract — for a deterministic simulator both sides hold the
// same result, so the overwrite is a no-op in value). Entries failing the
// checksum are dropped and counted in Stats.Rejected. Bytes that are not a
// binary snapshot of this version are an error: unlike a stale disk
// checkpoint, bytes handed to LoadBytes were produced by a peer that should
// speak the format.
func (c *Cache) LoadBytes(data []byte) (added, replaced int, err error) {
	return c.LoadStream(bytes.NewReader(data))
}

// PoisonSnapshot returns a copy of snapshot bytes with one entry's
// checksum corrupted — a snapshot that parses cleanly but must lose
// exactly one entry to checksum rejection on load: the last checksum byte
// of the middle record is flipped, so the index still locates the record
// and its key-binding checksum no longer proves. It exists for the chaos
// injector and for tests proving that every snapshot consumer (LoadFile,
// LoadBytes, POST /v1/cache/snapshot) actually verifies checksums; an
// empty snapshot cannot be poisoned and errors.
func PoisonSnapshot(data []byte) ([]byte, error) {
	if !IsBinarySnapshot(data) {
		return nil, fmt.Errorf("simcache: poison: not a binary snapshot")
	}
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
