package simcache

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"slices"
	"sync"

	"racesim/internal/core"
)

// Mapped is the mmap-backed read path over a binary snapshot: Open maps
// the file and parses only the fixed-width index, so cold start is
// O(index) — a process sweeping 12 configs against a 10k-entry cache
// never decodes the other entries. A lookup searches the index once, from
// the rank its hash predicts (lowerBound), compares the candidate record's
// stored key (hash collisions are legal), and decodes a core.Result only
// on Get; the per-record checksum is re-proved at that moment, every time — nothing
// keeps a decoded record — so a flipped byte on disk rejects exactly the
// record it hit.
//
// A Mapped is immutable after Open and safe for concurrent readers
// without locking — every method reads the mapping and the index, never
// writes (keyOrder fills in its answer once, under a sync.Once). SaveFile
// renaming a new snapshot over the mapped path is also safe: the old inode
// stays mapped until Close.
type Mapped struct {
	info    os.FileInfo // the file as opened: identity, size, mtime
	data    []byte
	mapped  bool // munmap needed on Close
	version uint32
	index   []idxEntry // sorted by (hash, offset)
	salvage bool       // index was rebuilt by a record scan

	orderOnce sync.Once
	order     []idxEntry // keyOrder's answer, once asked for
}

// OpenMapped maps the binary snapshot at path. A file whose footer or
// index is damaged (torn tail, truncation) is salvaged by a sequential
// record scan that stops at the first corrupt record — the snapshot
// yields every record written before the damage. A file that is not a
// binary snapshot at all returns an error naming it.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mapped, err := mapFile(f, int(info.Size()))
	if err != nil {
		return nil, err
	}
	m := &Mapped{info: info, data: data, mapped: mapped}
	if err := m.parse(path); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// parse checks the header of the file at path, mapped as m.data, and reads
// its index — or rebuilds one by a salvage scan when the footer or index is
// damaged.
func (m *Mapped) parse(path string) error {
	data := m.data
	if len(data) < headerSize {
		return fmt.Errorf("simcache: %s: too small for a binary snapshot (%d bytes)", path, len(data))
	}
	if !IsBinarySnapshot(data) {
		return fmt.Errorf("simcache: %s: not a binary snapshot", path)
	}
	m.version = binary.LittleEndian.Uint32(data[4:8])
	if m.version != binVersion {
		return &StaleFormatError{Path: path, Format: int(m.version)}
	}
	if !m.loadIndex() {
		m.salvage = true
		m.index = salvageScan(data)
	}
	return nil
}

// loadIndex parses the footer and index, verifying the index checksum
// and that every entry points inside the record region. Any failure
// reports false and the caller falls back to a salvage scan.
func (m *Mapped) loadIndex() bool {
	data := m.data
	if len(data) < headerSize+footerSize {
		return false
	}
	ftr := data[len(data)-footerSize:]
	if [4]byte(ftr[28:32]) != footerMagic {
		return false
	}
	indexOff := binary.LittleEndian.Uint64(ftr[0:8])
	count := binary.LittleEndian.Uint64(ftr[8:16])
	indexEnd := uint64(len(data) - footerSize)
	if indexOff < headerSize || indexOff >= indexEnd {
		return false
	}
	if indexEnd-indexOff != 1+count*indexEntrySize {
		return false
	}
	if data[indexOff] != indexMarker {
		return false
	}
	sum := sha256.Sum256(data[indexOff:indexEnd])
	if [8]byte(ftr[16:24]) != [8]byte(sum[:8]) {
		return false
	}
	index := make([]idxEntry, count)
	p := indexOff + 1
	for i := range index {
		index[i].hash = binary.LittleEndian.Uint64(data[p : p+8])
		index[i].off = binary.LittleEndian.Uint64(data[p+8 : p+16])
		index[i].size = binary.LittleEndian.Uint32(data[p+16 : p+20])
		e := &index[i]
		if e.off < headerSize || e.off+uint64(e.size) > indexOff {
			return false
		}
		if i > 0 && (index[i-1].hash > e.hash ||
			(index[i-1].hash == e.hash && index[i-1].off > e.off)) {
			return false
		}
		p += indexEntrySize
	}
	m.index = index
	return true
}

// salvageScan rebuilds an index by walking records from the header
// forward, stopping at the first byte that does not parse as a record —
// the recovery path for truncated files and torn index tails. Checksum
// verification stays lazy (Get), matching the indexed path.
func salvageScan(data []byte) []idxEntry {
	var index []idxEntry
	off := headerSize
	for off < len(data) && data[off] == recordMarker {
		r, err := parseRecord(data[off:])
		if err != nil {
			break
		}
		index = append(index, idxEntry{hash: keyHash((*[keySize]byte)(r.key)), off: uint64(off), size: uint32(len(r.bytes))})
		off += len(r.bytes)
	}
	sortIndex(index)
	return index
}

// errNoRecord is Get's error for a key the snapshot does not index; any
// other error means the record is there and corrupt.
var errNoRecord = errors.New("simcache: no record for key")

// find locates the record for key, whose index hash is h, parsing only
// same-hash candidates.
func (m *Mapped) find(key *[keySize]byte, h uint64) (record, bool) {
	if m == nil {
		return record{}, false
	}
	for i := lowerBound(m.index, h); i < len(m.index) && m.index[i].hash == h; i++ {
		r, err := m.recordAt(m.index[i])
		if err == nil && bytes.Equal(r.key, key[:]) {
			return r, true
		}
	}
	return record{}, false
}

// lowerBound returns the position of the first entry of index, sorted by
// hash, whose hash is at least h (len(index) if none). Index hashes are
// uniform (FNV-1a of a key that is two SHA-256 sums), so that entry's rank
// is close to h's share of the hash space: the search starts at the rank
// h predicts, moves once by the ranks the gap between h and the hash found
// there predicts, gallops from that entry in doubling steps until the
// answer is bracketed, and bisects the bracket. On a snapshot's index that
// is a few probes, all close together; on any sorted index, however its
// hashes cluster, it is O(log n).
func lowerBound(index []idxEntry, h uint64) int {
	n := len(index)
	if n == 0 {
		return 0
	}
	guess, _ := bits.Mul64(h, uint64(n))
	i := int(guess)
	if g := index[i].hash; g < h {
		ahead, _ := bits.Mul64(h-g, uint64(n))
		i = min(i+int(ahead), n-1)
	} else if g > h {
		behind, _ := bits.Mul64(g-h, uint64(n))
		i = max(i-int(behind), 0)
	}
	// The answer lies in [lo, hi].
	lo, hi := 0, n
	if index[i].hash < h {
		lo = i + 1
		for step := 1; ; step *= 2 {
			j := i + step
			if j >= n {
				break
			}
			if index[j].hash >= h {
				hi = j
				break
			}
			lo = j + 1
		}
	} else {
		hi = i
		for step := 1; ; step *= 2 {
			j := i - step
			if j < 0 {
				break
			}
			if index[j].hash < h {
				lo = j + 1
				break
			}
			hi = j
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if index[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// holds reports whether the tier indexes key, whose index hash is h.
func (m *Mapped) holds(key *[keySize]byte, h uint64) bool {
	_, ok := m.find(key, h)
	return ok
}

// recordAt parses the record an index entry points at.
func (m *Mapped) recordAt(e idxEntry) (record, error) {
	return parseRecord(m.data[e.off : e.off+uint64(e.size)])
}

// keyOrder returns the index entries of the records whose keys parse, in
// key order — the order the snapshot writer reads a file in. A file this
// package wrote already is in key order, so that is its file order,
// checked rather than sorted; any other file is sorted by key, keeping the
// first record of a key. Computed on first use.
func (m *Mapped) keyOrder() []idxEntry {
	if m == nil {
		return nil
	}
	m.orderOnce.Do(func() {
		byKey := func(a, b idxEntry) int {
			ra, _ := m.recordAt(a)
			rb, _ := m.recordAt(b)
			return bytes.Compare(ra.key, rb.key)
		}
		order := slices.Clone(m.index)
		slices.SortFunc(order, func(a, b idxEntry) int { return cmp.Compare(a.off, b.off) })
		kept, sorted := order[:0], true
		for _, e := range order {
			if _, err := m.recordAt(e); err != nil {
				continue // as RangeKeys skips it
			}
			if len(kept) > 0 && byKey(kept[len(kept)-1], e) >= 0 {
				sorted = false
			}
			kept = append(kept, e)
		}
		if !sorted {
			slices.SortStableFunc(kept, byKey)
			kept = slices.CompactFunc(kept, func(a, b idxEntry) bool { return byKey(a, b) == 0 })
		}
		m.order = kept
	})
	return m.order
}

// Get decodes the result for key in one index search, verifying the
// record's checksum. A missing key is errNoRecord, a corrupt record any
// other error.
func (m *Mapped) Get(key string) (core.Result, error) {
	var k [keySize]byte
	if !packKey(key, &k) {
		return core.Result{}, errNoRecord
	}
	r, ok := m.find(&k, keyHash(&k))
	if !ok {
		return core.Result{}, errNoRecord
	}
	var res core.Result
	if err := r.check(resultWords(&res)); err != nil {
		return core.Result{}, err
	}
	return res, nil
}

// RangeKeys calls f for every indexed record's key and encoded size,
// in index (hash) order, until f returns false. Results are not decoded.
func (m *Mapped) RangeKeys(f func(key string, size int) bool) {
	if m == nil {
		return
	}
	for _, e := range m.index {
		if r, err := m.recordAt(e); err == nil && !f(spellKey(r.key), len(r.bytes)) {
			return
		}
	}
}

// Count returns the number of indexed records.
func (m *Mapped) Count() int {
	if m == nil {
		return 0
	}
	return len(m.index)
}

// Version returns the snapshot's format version.
func (m *Mapped) Version() uint32 {
	if m == nil {
		return 0
	}
	return m.version
}

// IndexBytes returns the on-disk size of the index section.
func (m *Mapped) IndexBytes() int {
	if m == nil {
		return 0
	}
	return 1 + len(m.index)*indexEntrySize
}

// Salvaged reports whether the index was rebuilt by a record scan
// because the footer or index section was damaged.
func (m *Mapped) Salvaged() bool {
	return m != nil && m.salvage
}

// Close unmaps the file. The Mapped must not be used afterwards.
func (m *Mapped) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data, mapped := m.data, m.mapped
	m.data, m.index = nil, nil
	return unmapFile(data, mapped)
}
