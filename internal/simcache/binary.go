package simcache

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"slices"
	"unsafe"

	"racesim/internal/core"
)

// The binary columnar snapshot format, built to open in O(index) and
// touch only the records a run actually asks for:
//
//	header   magic "RSCB" | version u32 | reserved u64          (16 B)
//	records  marker 'R' | key [64]B | reslen uvarint |
//	         result varints | sum [8]B  (truncated sha256 over
//	         key+result bytes)
//	index    marker 'I' | count*20 B: keyhash u64 | off u64 | len u32
//	         (sorted by keyhash, ties by offset)
//	footer   indexOff u64 | count u64 | indexSum [8]B |
//	         reserved u32 | magic "rscE"                        (32 B)
//
// Records are written sorted by key, so two caches holding equal
// entries serialize to identical bytes. The index is fixed-width and hash-sorted
// for binary search; the footer places it so a writer can stream
// records without knowing the total up front. Every record carries its
// own checksum binding result bytes to the key: one flipped byte
// rejects one record, never the file.
//
// A key is 64 bytes, the one form the cache stores, hashes (keyHash),
// checksums and compares: a simulation's is its configuration's
// fingerprint sum and its trace's digest, a trace identity's the sum of
// its build and memo key and a fixed tag (identity.go). Its string form,
// "hex64:hex64", lives only at the API edge (packKey, spellKey). Results
// are flat trees of uint64 counters and encode as varints — field names
// never hit the disk. Version 1 records carried a key-form byte and a key
// length instead; a version 1 file opens as a StaleFormatError.
//
// A record is also the one form a result takes outside a simulation: the
// memory tier holds each result as its record, so the writer, an import
// and a transfer between processes move record bytes and never decode or
// re-encode a result (see writeSnapshot and importRecord).

const (
	binVersion = 2

	keySize      = 64
	recordMarker = byte('R')
	indexMarker  = byte('I')

	headerSize     = 16
	footerSize     = 32
	indexEntrySize = 20
)

var (
	binMagic    = [4]byte{'R', 'S', 'C', 'B'}
	footerMagic = [4]byte{'r', 's', 'c', 'E'}
)

// IsBinarySnapshot reports whether data begins with the binary snapshot
// magic — the check every loader makes on outside input (disk snapshots,
// snapshot HTTP bodies, operator files).
func IsBinarySnapshot(data []byte) bool {
	return len(data) >= 4 && data[0] == binMagic[0] && data[1] == binMagic[1] &&
		data[2] == binMagic[2] && data[3] == binMagic[3]
}

// uint64Fields counts the uint64 fields of t in declaration order (nested
// structs and arrays depth-first) and panics on any other kind. A tree of
// uint64 has no padding, so field k of that order sits at byte 8k: the
// field-offset table the codec moves a core.Result through is the identity,
// and resultWords is that table applied.
func uint64Fields(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Uint64:
		return 1
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += uint64Fields(t.Field(i).Type)
		}
		return n
	case reflect.Array:
		return t.Len() * uint64Fields(t.Elem())
	default:
		panic(fmt.Sprintf("simcache: core.Result holds a %s field; the binary codec handles uint64 trees only", t.Kind()))
	}
}

// numResultFields is computed once, by the one reflective walk of
// core.Result there is; every record's field count must match it exactly,
// so a Result schema change cannot silently skew the codec: a new field
// changes the count, and mismatched counts reject the record like any
// other corruption.
var numResultFields = func() int {
	t := reflect.TypeOf(core.Result{})
	n := uint64Fields(t)
	if t.Size() != uintptr(8*n) {
		panic(fmt.Sprintf("simcache: core.Result is %d bytes for %d uint64 fields", t.Size(), n))
	}
	return n
}()

// resultWords is res seen as its uint64 fields in declaration order; the
// init-time walk above proved that is all a core.Result is.
func resultWords(res *core.Result) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(res)), numResultFields)
}

// maxPayload bounds an encoded result: the field count and one varint per
// field, each at most binary.MaxVarintLen64 bytes.
const maxPayload = 1024

// appendResult encodes a result as a varint field-count followed by one
// varint per uint64 field.
func appendResult(buf []byte, res *core.Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(numResultFields))
	for _, x := range resultWords(res) {
		buf = binary.AppendUvarint(buf, x)
	}
	return buf
}

// walkPayload checks that data is a payload appendResult could have
// written — this schema's field count, then that many varints, each in its
// shortest form, and nothing after — storing the fields into words unless
// words is nil.
func walkPayload(data []byte, words []uint64) error {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return fmt.Errorf("simcache: result payload: bad field count")
	}
	if int(n) != numResultFields {
		return fmt.Errorf("simcache: result payload has %d fields, want %d", n, numResultFields)
	}
	p := used
	for i := 0; i < numResultFields; i++ {
		var x uint64
		if p < len(data) && data[p] < 0x80 {
			x = uint64(data[p]) // most counters are small
			p++
		} else if x, used = binary.Uvarint(data[p:]); used <= 0 {
			return fmt.Errorf("simcache: result payload: truncated varint")
		} else if p += used; data[p-1] == 0 {
			return fmt.Errorf("simcache: result payload: varint not in its shortest form")
		}
		if words != nil {
			words[i] = x
		}
	}
	if p != len(data) {
		return fmt.Errorf("simcache: result payload: %d trailing bytes", len(data)-p)
	}
	return nil
}

// packKey packs a key string, "hex64:hex64" in lowercase — the shape
// Key, JoinKey and spellKey give every key — into buf, reporting whether
// key has that shape.
func packKey(key string, buf *[keySize]byte) bool {
	return len(key) == 129 && key[64] == ':' && unhex(buf[:32], key[:64]) && unhex(buf[32:], key[65:])
}

// unhex decodes s, len(dst) bytes in lowercase hex, into dst, reporting
// whether s is that.
func unhex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := lowerNibble(s[2*i])
		lo, ok2 := lowerNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func lowerNibble(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// spellKey is the string form of a packed key: packKey's inverse.
func spellKey(key []byte) string {
	var buf [129]byte
	hex.Encode(buf[:64], key[:32])
	buf[64] = ':'
	hex.Encode(buf[65:], key[32:])
	return string(buf[:])
}

// recordSum is the per-record checksum: the first 8 bytes of
// sha256(key || result payload).
func recordSum(key, resultPayload []byte) (sum [8]byte) {
	var stack [keySize + maxPayload]byte
	full := sha256.Sum256(append(append(stack[:0], key...), resultPayload...))
	copy(sum[:], full[:])
	return sum
}

// keyHash is the index hash: FNV-1a over the key. Collisions are legal —
// lookups verify the record's stored key.
func keyHash(key *[keySize]byte) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// newRecord encodes one record (marker through checksum) of a result whose
// payload (appendResult) is resBytes.
func newRecord(key *[keySize]byte, resBytes []byte) []byte {
	rec := make([]byte, 0, 1+keySize+binary.MaxVarintLen16+len(resBytes)+8)
	rec = append(append(rec, recordMarker), key[:]...)
	rec = binary.AppendUvarint(rec, uint64(len(resBytes)))
	rec = append(rec, resBytes...)
	sum := recordSum(key[:], resBytes)
	return append(rec, sum[:]...)
}

// encodeRecord is newRecord for a result.
func encodeRecord(key *[keySize]byte, res *core.Result) []byte {
	var stack [maxPayload]byte
	return newRecord(key, appendResult(stack[:0], res))
}

// recordKey is the key of a record this package encoded or verified.
func recordKey(rec []byte) *[keySize]byte {
	return (*[keySize]byte)(rec[1 : 1+keySize])
}

// record is one parsed (not yet verified) record. Its byte slices alias
// the input buffer.
type record struct {
	key      []byte // keySize bytes
	resBytes []byte
	sum      [8]byte
	bytes    []byte // the whole record, marker through checksum
}

// parseRecord parses the record at data[0:]; data may extend past the
// record. It verifies structure only — checksum verification is the
// caller's (lazy) job.
func parseRecord(data []byte) (record, error) {
	var r record
	if len(data) < 1+keySize || data[0] != recordMarker {
		return r, fmt.Errorf("simcache: not a record at this offset")
	}
	p := 1 + keySize
	resLen, used := binary.Uvarint(data[p:])
	if used <= 0 {
		return r, fmt.Errorf("simcache: record: bad result length")
	}
	p += used
	if resLen > uint64(len(data)) || uint64(p)+resLen+8 > uint64(len(data)) {
		return r, fmt.Errorf("simcache: record overruns the file")
	}
	r.key = data[1 : 1+keySize]
	r.resBytes = data[p : p+int(resLen)]
	p += int(resLen)
	copy(r.sum[:], data[p:p+8])
	r.bytes = data[:p+8]
	return r, nil
}

// check re-proves the checksum binding the record's result to its key and
// checks the payload's shape, storing its fields into words unless words is
// nil (walkPayload).
func (r *record) check(words []uint64) error {
	if recordSum(r.key, r.resBytes) != r.sum {
		return fmt.Errorf("simcache: record %s failed its checksum", spellKey(r.key))
	}
	return walkPayload(r.resBytes, words)
}

// idxEntry is one fixed-width index entry.
type idxEntry struct {
	hash uint64
	off  uint64
	size uint32
}

// sortIndex puts index entries in the order the index section stores them.
func sortIndex(index []idxEntry) {
	slices.SortFunc(index, func(a, b idxEntry) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.off, b.off))
	})
}

// snapshotWriter streams a snapshot: the header, then records one at a
// time as they are added, then the index and footer. Only the fixed-width
// index (20 bytes/entry) accumulates until the end.
type snapshotWriter struct {
	bw    *bufio.Writer
	off   uint64
	index []idxEntry
}

func newSnapshotWriter(w io.Writer, records int) (*snapshotWriter, error) {
	sw := &snapshotWriter{bw: bufio.NewWriterSize(w, 1<<16), off: headerSize, index: make([]idxEntry, 0, records)}
	var hdr [headerSize]byte
	copy(hdr[:4], binMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], binVersion)
	_, err := sw.bw.Write(hdr[:])
	return sw, err
}

// add writes one encoded record whose key hashes to hash.
func (sw *snapshotWriter) add(rec []byte, hash uint64) error {
	if _, err := sw.bw.Write(rec); err != nil {
		return err
	}
	sw.index = append(sw.index, idxEntry{hash: hash, off: sw.off, size: uint32(len(rec))})
	sw.off += uint64(len(rec))
	return nil
}

// finish writes the index and footer and flushes.
func (sw *snapshotWriter) finish() error {
	sortIndex(sw.index)
	indexOff := sw.off
	ih := sha256.New()
	var ebuf [indexEntrySize]byte
	ih.Write([]byte{indexMarker})
	if err := sw.bw.WriteByte(indexMarker); err != nil {
		return err
	}
	for _, e := range sw.index {
		binary.LittleEndian.PutUint64(ebuf[0:8], e.hash)
		binary.LittleEndian.PutUint64(ebuf[8:16], e.off)
		binary.LittleEndian.PutUint32(ebuf[16:20], e.size)
		ih.Write(ebuf[:])
		if _, err := sw.bw.Write(ebuf[:]); err != nil {
			return err
		}
	}
	var ftr [footerSize]byte
	binary.LittleEndian.PutUint64(ftr[0:8], indexOff)
	binary.LittleEndian.PutUint64(ftr[8:16], uint64(len(sw.index)))
	copy(ftr[16:24], ih.Sum(nil)[:8])
	copy(ftr[28:32], footerMagic[:])
	if _, err := sw.bw.Write(ftr[:]); err != nil {
		return err
	}
	return sw.bw.Flush()
}

// WriteBinaryTo streams the cache — the memory tier merged with any
// attached disk tier, memory winning a key both hold — to w in the binary
// snapshot format. Records stream one at a time: the full serialized
// snapshot never exists in memory.
func (c *Cache) WriteBinaryTo(w io.Writer) error {
	return c.writeSnapshot(w, false, 0, nil)
}

// WriteDeltaTo streams, as a snapshot, the results stored in memory by a
// simulation or Store after mark (see Mark) — never a record an import
// stored, never the disk tier. It is the export a serve worker hands back
// to the sweep that pre-seeded it: what it computed itself.
func (c *Cache) WriteDeltaTo(w io.Writer, mark uint64) error {
	return c.writeSnapshot(w, true, mark, nil)
}

// WriteSubsetTo is WriteBinaryTo restricted to the records whose key
// hashes — as KeyHashes lists them — are in hashes, which is sorted: the
// pre-seed of a worker that lacks only those (Missing). Every record of the
// disk tier it writes is re-proved as WriteBinaryTo's are; the others are
// not read.
func (c *Cache) WriteSubsetTo(w io.Writer, hashes []uint64) error {
	return c.writeSnapshot(w, false, 0, func(h uint64) bool {
		_, ok := slices.BinarySearch(hashes, h)
		return ok
	})
}

// writeSnapshot merges two key-sorted record streams into w, copying
// record bytes: the memory tier's records as stored (they were verified or
// encoded when stored), and — unless delta — the attached file's in key
// order, each checksum re-proved as it is copied. keep, unless nil, picks
// the records to write by key hash: a memory entry's, or the one the file's
// index lists. A file record that fails is dropped and counted rejected,
// once however many writes meet it. The lock is held only while the memory
// tier is listed: a stored record is never written to, so a long write
// does not block simulations.
func (c *Cache) writeSnapshot(w io.Writer, delta bool, mark uint64, keep func(hash uint64) bool) error {
	var mem []record
	var disk *Mapped
	if c != nil {
		c.mu.Lock()
		if !delta && keep == nil {
			mem = make([]record, 0, c.lru.Len())
		}
		for e := c.lru.Front(); e != nil; e = e.Next() {
			if ce := e.Value.(*centry); (!delta || ce.seq > mark) && (keep == nil || keep(ce.hash)) {
				mem = append(mem, record{bytes: ce.rec})
			}
		}
		if !delta {
			disk = c.disk
		}
		c.mu.Unlock()
	}
	for i := range mem {
		mem[i], _ = parseRecord(mem[i].bytes) // a stored record parses
	}
	slices.SortFunc(mem, func(a, b record) int { return bytes.Compare(a.key, b.key) })
	file := disk.keyOrder()
	if keep != nil {
		file = slices.DeleteFunc(slices.Clone(file), func(e idxEntry) bool { return !keep(e.hash) })
	}

	sw, err := newSnapshotWriter(w, len(mem)+len(file))
	if err != nil {
		return err
	}
	for i, j := 0, 0; i < len(mem) || j < len(file); {
		next := -1 // < 0: mem[i] is next; > 0: the file's; 0: mem[i] shadows the file's
		var fr record
		if j < len(file) {
			fr, _ = disk.recordAt(file[j]) // keyOrder keeps records that parse
			if next = 1; i < len(mem) {
				next = bytes.Compare(mem[i].key, fr.key)
			}
		}
		r := &fr
		if next <= 0 {
			r = &mem[i]
			i++
		}
		if next >= 0 {
			j++
		}
		key := (*[keySize]byte)(r.key)
		if next > 0 && fr.check(nil) != nil {
			c.rejectDisk(key)
			continue
		}
		if err := sw.add(r.bytes, keyHash(key)); err != nil {
			return err
		}
	}
	return sw.finish()
}

// LoadStream merges a binary snapshot from r into the cache with checksum
// verification and last-writer-wins semantics: an incoming entry that
// passes its checksum replaces a stored entry under the same key (the
// federation contract — for a deterministic simulator both sides hold the
// same result, so the overwrite is a no-op in value). Entries failing the
// checksum are dropped and counted in Stats.Rejected. Bytes that are not a
// binary snapshot of this version are an error: unlike a stale disk
// checkpoint, a stream was produced by a peer that should speak the
// format. The snapshot is never buffered whole: each record is
// length-prefixed, so the reader pulls exactly one record at a time and
// imports it (importRecord). The trailing index and footer are drained
// and discarded — a streamed merge needs no random access.
func (c *Cache) LoadStream(r io.Reader) (added, replaced int, err error) {
	if c == nil {
		return 0, 0, fmt.Errorf("simcache: LoadStream on a nil cache")
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("simcache: binary snapshot header: %w", err)
	}
	if !IsBinarySnapshot(hdr[:]) {
		return 0, 0, fmt.Errorf("simcache: binary snapshot: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != binVersion {
		return 0, 0, fmt.Errorf("simcache: binary snapshot version %d, want %d", v, binVersion)
	}
	var buf []byte
	for {
		marker, err := br.ReadByte()
		if err == io.EOF {
			// A record stream with no index section (a streamed delta may
			// legally end after its records — see WriteBinaryTo callers that
			// stream to sockets); treat clean EOF as end of records.
			return added, replaced, nil
		}
		if err != nil {
			return added, replaced, err
		}
		if marker == indexMarker {
			// Drain the index + footer; a streaming merge has no use for
			// them and the source may be a socket.
			if _, err := io.Copy(io.Discard, br); err != nil {
				return added, replaced, err
			}
			return added, replaced, nil
		}
		if marker != recordMarker {
			return added, replaced, fmt.Errorf("simcache: binary snapshot: unexpected marker 0x%02x", marker)
		}
		// The record, reassembled in buf as the writer lays it out.
		buf = slices.Grow(buf[:0], 1+keySize)[:1+keySize]
		buf[0] = recordMarker
		if _, err := io.ReadFull(br, buf[1:]); err != nil {
			return added, replaced, err
		}
		resLen, err := binary.ReadUvarint(br)
		if err != nil {
			return added, replaced, err
		}
		if resLen > 1<<24 {
			return added, replaced, fmt.Errorf("simcache: binary snapshot: implausible record size %d", resLen)
		}
		buf = binary.AppendUvarint(buf, resLen)
		body := len(buf)
		buf = slices.Grow(buf, int(resLen)+8)[:body+int(resLen)+8]
		if _, err := io.ReadFull(br, buf[body:]); err != nil {
			return added, replaced, err
		}
		switch c.importRecord(buf) {
		case importAdded:
			added++
		case importReplaced:
			replaced++
		}
	}
}

// What importRecord did with a record.
const (
	importRejected = iota
	importAdded
	importReplaced
)

// importRecord merges one encoded record (rec, which the caller may reuse
// afterwards) into the memory tier, last-writer-wins. A record identical to
// the one the cache already serves for its key (probe) counts as replaced
// and changes nothing. Any other is verified — its checksum re-proved, its
// payload's shape checked — and stored as a copy of its bytes, under store
// sequence 0: an import is never part of a delta. A record that fails is
// counted rejected. No result is decoded.
func (c *Cache) importRecord(rec []byte) int {
	r, err := parseRecord(rec)
	if err != nil || len(r.bytes) != len(rec) { // a record this package wrote is all of rec
		c.countRejected()
		return importRejected
	}
	key := (*[keySize]byte)(r.key)
	hash := keyHash(key)
	if served, _ := c.probe(key, hash); bytes.Equal(served, rec) {
		return importReplaced
	}
	if r.check(nil) != nil {
		c.countRejected()
		return importRejected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, replaced := c.insertLocked(bytes.Clone(rec), hash, 0); replaced {
		return importReplaced
	}
	return importAdded
}

func (c *Cache) countRejected() {
	c.mu.Lock()
	c.rejectLocked()
	c.mu.Unlock()
}

// rejectLocked counts one record dropped by its checksum. Caller holds
// c.mu.
func (c *Cache) rejectLocked() {
	c.rejected++
	c.dirty = true
}

// rejectDisk counts the attached tier's record for key dropped by its
// checksum — once, however many lookups and writes find it corrupt.
func (c *Cache) rejectDisk(key *[keySize]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.badDisk[*key] {
		return
	}
	if c.badDisk == nil {
		c.badDisk = map[[keySize]byte]bool{}
	}
	c.badDisk[*key] = true
	c.rejectLocked()
}
