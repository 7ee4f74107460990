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
//	records  marker 'R' | keyform u8 | keylen uvarint |
//	         reslen uvarint | key bytes | result varints |
//	         sum [8]B  (truncated sha256 over key+result bytes)
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
// Typical cache keys are "hex64:hex64" (config fingerprint x trace
// digest); keyform 1 packs those into 64 raw bytes. Results are flat
// trees of uint64 counters and encode as varints — field names never
// hit the disk.
//
// A record is also the one form a result takes outside a simulation: the
// memory tier holds each result as its record, so the writer, an import
// and a transfer between processes move record bytes and never decode or
// re-encode a result (see writeSnapshot and importRecord).

const (
	binVersion = 1

	keyformRaw    = 0 // key stored as its literal string bytes
	keyformHexHex = 1 // "hex64:hex64" packed into 64 raw bytes

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
	data = data[used:]
	for i := 0; i < numResultFields; i++ {
		var x uint64
		if len(data) > 0 && data[0] < 0x80 {
			x, used = uint64(data[0]), 1 // most counters are small
		} else if x, used = binary.Uvarint(data); used <= 0 {
			return fmt.Errorf("simcache: result payload: truncated varint")
		} else if data[used-1] == 0 {
			return fmt.Errorf("simcache: result payload: varint not in its shortest form")
		}
		if words != nil {
			words[i] = x
		}
		data = data[used:]
	}
	if len(data) != 0 {
		return fmt.Errorf("simcache: result payload: %d trailing bytes", len(data))
	}
	return nil
}

// decodeResult decodes appendResult's payload.
func decodeResult(data []byte) (core.Result, error) {
	var res core.Result
	if err := walkPayload(data, resultWords(&res)); err != nil {
		return core.Result{}, err
	}
	return res, nil
}

// packHexHex packs a "hex64:hex64" key, the shape every simulation key
// has, into buf, reporting whether key has that shape.
func packHexHex(key string, buf *[64]byte) bool {
	if len(key) != 129 || key[64] != ':' {
		return false
	}
	_, err1 := hex.Decode(buf[:32], []byte(key[:64]))
	_, err2 := hex.Decode(buf[32:], []byte(key[65:]))
	return err1 == nil && err2 == nil
}

// packKey compresses a key for storage: "hex64:hex64" keys (the shape
// every real cache key has) pack to 64 raw bytes, into buf; any other key
// is stored as it is.
func packKey(key string, buf *[64]byte) (form byte, payload []byte) {
	if packHexHex(key, buf) {
		return keyformHexHex, buf[:]
	}
	return keyformRaw, []byte(key)
}

// canonicalKey is the key string a stored (form, payload) pair spells, as
// bytes: the payload itself for a raw key, written into buf for a packed
// one.
func canonicalKey(form byte, payload []byte, buf *[129]byte) ([]byte, error) {
	switch form {
	case keyformRaw:
		return payload, nil
	case keyformHexHex:
		if len(payload) != 64 {
			return nil, fmt.Errorf("simcache: packed key payload is %d bytes, want 64", len(payload))
		}
		hex.Encode(buf[:64], payload[:32])
		buf[64] = ':'
		hex.Encode(buf[65:], payload[32:])
		return buf[:], nil
	default:
		return nil, fmt.Errorf("simcache: unknown key form %d", form)
	}
}

// unpackKey inverts packKey.
func unpackKey(form byte, payload []byte) (string, error) {
	var buf [129]byte
	key, err := canonicalKey(form, payload, &buf)
	return string(key), err
}

// compareKeys orders two stored keys as their key strings order — the
// order records are written in. Two packed keys compare as stored: the
// lowercase hex digits they unpack to sort as the nibbles they spell, and
// the colon sits at the same place in both.
func compareKeys(a, b *record) int {
	if a.form == keyformHexHex && b.form == keyformHexHex {
		return bytes.Compare(a.keyBytes, b.keyBytes)
	}
	var abuf, bbuf [129]byte
	ak, _ := canonicalKey(a.form, a.keyBytes, &abuf)
	bk, _ := canonicalKey(b.form, b.keyBytes, &bbuf)
	return bytes.Compare(ak, bk)
}

// recordSum is the per-record checksum: the first 8 bytes of
// sha256(canonical key || result payload). Binding the canonical string
// key (not the packed payload) means both key forms of the same key
// verify identically.
func recordSum[K string | []byte](key K, resultPayload []byte) (sum [8]byte) {
	var stack [512]byte // a record's key and payload nearly always fit
	full := sha256.Sum256(append(append(stack[:0], key...), resultPayload...))
	copy(sum[:], full[:])
	return sum
}

// keyHash is the index hash: FNV-1a over the canonical key string.
// Collisions are legal — lookups verify the record's stored key.
func keyHash[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// appendRecord encodes one record (marker through checksum).
func appendRecord(buf []byte, key string, res *core.Result) []byte {
	var packed [64]byte
	form, payload := packKey(key, &packed)
	var stack [maxPayload]byte
	resBytes := appendResult(stack[:0], res)
	buf = append(buf, recordMarker, form)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.AppendUvarint(buf, uint64(len(resBytes)))
	buf = append(buf, payload...)
	buf = append(buf, resBytes...)
	sum := recordSum(key, resBytes)
	return append(buf, sum[:]...)
}

// record is one parsed (not yet verified) record. Its byte slices alias
// the input buffer.
type record struct {
	form     byte
	keyBytes []byte // the key as stored, see packKey
	resBytes []byte
	sum      [8]byte
	bytes    []byte // the whole record, marker through checksum
}

// parseRecord parses the record at data[0:]; data may extend past the
// record. It verifies structure only — the key stays packed, and checksum
// verification is the caller's (lazy) job.
func parseRecord(data []byte) (record, error) {
	var r record
	if len(data) < 2 || data[0] != recordMarker {
		return r, fmt.Errorf("simcache: not a record at this offset")
	}
	r.form = data[1]
	p := 2
	keyLen, used := binary.Uvarint(data[p:])
	if used <= 0 {
		return r, fmt.Errorf("simcache: record: bad key length")
	}
	p += used
	resLen, used := binary.Uvarint(data[p:])
	if used <= 0 {
		return r, fmt.Errorf("simcache: record: bad result length")
	}
	p += used
	if keyLen > uint64(len(data)) || resLen > uint64(len(data)) ||
		uint64(p)+keyLen+resLen+8 > uint64(len(data)) {
		return r, fmt.Errorf("simcache: record overruns the file")
	}
	r.keyBytes = data[p : p+int(keyLen)]
	p += int(keyLen)
	r.resBytes = data[p : p+int(resLen)]
	p += int(resLen)
	copy(r.sum[:], data[p:p+8])
	r.bytes = data[:p+8]
	return r, nil
}

// key is the record's key as a string.
func (r *record) key() (string, error) {
	return unpackKey(r.form, r.keyBytes)
}

// decode returns the record's result after re-proving the checksum
// that binds it to key, which is the record's own: the string the caller
// looked it up by, or key().
func (r *record) decode(key string) (core.Result, error) {
	if recordSum(key, r.resBytes) != r.sum {
		return core.Result{}, fmt.Errorf("simcache: record %q failed its checksum", key)
	}
	return decodeResult(r.resBytes)
}

// verify re-proves the checksum binding the record to key, its canonical
// key, and checks its payload's shape without decoding it.
func (r *record) verify(key []byte) error {
	if recordSum(key, r.resBytes) != r.sum {
		return fmt.Errorf("simcache: record %q failed its checksum", string(key))
	}
	return walkPayload(r.resBytes, nil)
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

// add writes one encoded record whose canonical key hashes to hash.
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
	slices.SortFunc(mem, func(a, b record) int { return compareKeys(&a, &b) })
	file := disk.keyOrder()
	if keep != nil {
		file = slices.DeleteFunc(slices.Clone(file), func(e idxEntry) bool { return !keep(e.hash) })
	}

	sw, err := newSnapshotWriter(w, len(mem)+len(file))
	if err != nil {
		return err
	}
	var kbuf [129]byte
	for i, j := 0, 0; i < len(mem) || j < len(file); {
		next := -1 // < 0: mem[i] is next; > 0: the file's; 0: mem[i] shadows the file's
		var fr record
		if j < len(file) {
			fr, _ = disk.recordAt(file[j]) // keyOrder keeps records that parse
			if next = 1; i < len(mem) {
				next = compareKeys(&mem[i], &fr)
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
		key, _ := canonicalKey(r.form, r.keyBytes, &kbuf)
		if next > 0 && fr.verify(key) != nil {
			c.rejectDisk(string(key))
			continue
		}
		if err := sw.add(r.bytes, keyHash(key)); err != nil {
			return err
		}
	}
	return sw.finish()
}

// LoadStream merges a binary snapshot from r into the cache record by
// record with LoadBytes semantics, never buffering the whole snapshot: each
// record is length-prefixed, so the reader pulls exactly one record at a
// time and imports it (importRecord). The trailing index and footer are
// drained and discarded — a streamed merge needs no random access.
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
		form, err := br.ReadByte()
		if err != nil {
			return added, replaced, err
		}
		keyLen, err := binary.ReadUvarint(br)
		if err != nil {
			return added, replaced, err
		}
		resLen, err := binary.ReadUvarint(br)
		if err != nil {
			return added, replaced, err
		}
		if keyLen > 1<<20 || resLen > 1<<24 {
			return added, replaced, fmt.Errorf("simcache: binary snapshot: implausible record sizes (%d, %d)", keyLen, resLen)
		}
		// The record, reassembled in buf as the writer lays it out.
		buf = append(buf[:0], recordMarker, form)
		buf = binary.AppendUvarint(buf, keyLen)
		buf = binary.AppendUvarint(buf, resLen)
		body := len(buf)
		buf = slices.Grow(buf, int(keyLen+resLen)+8)[:body+int(keyLen+resLen)+8]
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
// the one the cache already serves for its key — in memory, or on disk
// when memory holds none — counts as replaced and changes nothing. Any
// other is verified — its checksum re-proved, its payload's shape checked,
// its key in the form the writer stores it — and stored as a copy of its
// bytes, under store sequence 0: an import is never part of a delta. A
// record that fails is counted rejected. No result is decoded.
func (c *Cache) importRecord(rec []byte) int {
	r, err := parseRecord(rec)
	var kbuf [129]byte
	var key []byte
	if err == nil {
		key, err = canonicalKey(r.form, r.keyBytes, &kbuf)
	}
	// A record this package wrote is all of rec, and stores a key that
	// packs in packed form.
	unpacked := r.form == keyformRaw && len(key) == 129 && packHexHex(string(key), new([64]byte))
	if err != nil || len(r.bytes) != len(rec) || unpacked {
		c.countRejected()
		return importRejected
	}
	c.mu.Lock()
	ce := c.entryLocked(r.form, r.keyBytes)
	identical := ce != nil && bytes.Equal(ce.rec, rec)
	disk := c.disk
	c.mu.Unlock()
	if identical {
		return importReplaced
	}
	hash := keyHash(key)
	if ce == nil && disk != nil {
		if dr, ok := disk.findStored(r.form, r.keyBytes, hash); ok && bytes.Equal(dr.bytes, rec) {
			return importReplaced
		}
	}
	if r.verify(key) != nil {
		c.countRejected()
		return importRejected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.insertLocked(bytes.Clone(rec), hash, 0) {
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
func (c *Cache) rejectDisk(key string) {
	c.mu.Lock()
	c.rejectDiskLocked(key)
	c.mu.Unlock()
}

func (c *Cache) rejectDiskLocked(key string) {
	if c.badDisk[key] {
		return
	}
	if c.badDisk == nil {
		c.badDisk = map[string]bool{}
	}
	c.badDisk[key] = true
	c.rejectLocked()
}
