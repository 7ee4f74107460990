package simcache

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"
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

// appendResult encodes a result as a varint field-count followed by one
// varint per uint64 field.
func appendResult(buf []byte, res *core.Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(numResultFields))
	for _, x := range resultWords(res) {
		buf = binary.AppendUvarint(buf, x)
	}
	return buf
}

// decodeResult decodes appendResult's payload.
func decodeResult(data []byte) (core.Result, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return core.Result{}, fmt.Errorf("simcache: result payload: bad field count")
	}
	if int(n) != numResultFields {
		return core.Result{}, fmt.Errorf("simcache: result payload has %d fields, want %d", n, numResultFields)
	}
	data = data[used:]
	var res core.Result
	for i, words := 0, resultWords(&res); i < len(words); i++ {
		x, used := binary.Uvarint(data)
		if used <= 0 {
			return core.Result{}, fmt.Errorf("simcache: result payload: truncated varint")
		}
		words[i], data = x, data[used:]
	}
	if len(data) != 0 {
		return core.Result{}, fmt.Errorf("simcache: result payload: %d trailing bytes", len(data))
	}
	return res, nil
}

// packKey compresses a key for storage: "hex64:hex64" keys (the shape
// every real cache key has) pack to 64 raw bytes, into buf.
func packKey(key string, buf *[64]byte) (form byte, payload []byte) {
	if len(key) == 129 && key[64] == ':' {
		_, err1 := hex.Decode(buf[:32], []byte(key[:64]))
		_, err2 := hex.Decode(buf[32:], []byte(key[65:]))
		if err1 == nil && err2 == nil {
			return keyformHexHex, buf[:]
		}
	}
	return keyformRaw, []byte(key)
}

// unpackKey inverts packKey.
func unpackKey(form byte, payload []byte) (string, error) {
	switch form {
	case keyformRaw:
		return string(payload), nil
	case keyformHexHex:
		if len(payload) != 64 {
			return "", fmt.Errorf("simcache: packed key payload is %d bytes, want 64", len(payload))
		}
		var key [129]byte // one allocation, the string, not five
		hex.Encode(key[:64], payload[:32])
		key[64] = ':'
		hex.Encode(key[65:], payload[32:])
		return string(key[:]), nil
	default:
		return "", fmt.Errorf("simcache: unknown key form %d", form)
	}
}

// recordSum is the per-record checksum: the first 8 bytes of
// sha256(canonical key || result payload). Binding the canonical string
// key (not the packed payload) means both key forms of the same key
// verify identically.
func recordSum(key string, resultPayload []byte) (sum [8]byte) {
	var stack [512]byte // a record's key and payload nearly always fit
	full := sha256.Sum256(append(append(stack[:0], key...), resultPayload...))
	copy(sum[:], full[:])
	return sum
}

// keyHash is the index hash: FNV-1a over the canonical key string.
// Collisions are legal — lookups verify the record's stored key.
func keyHash(key string) uint64 {
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
	resBytes := appendResult(nil, res)
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
	size     int // total encoded bytes incl. marker
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
	r.size = p + 8
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

// idxEntry is one fixed-width index entry.
type idxEntry struct {
	hash uint64
	off  uint64
	size uint32
}

// binaryEntrySource yields (key, result) pairs in sorted-key order for
// the binary writer — the merge of the in-memory entries and an
// attached disk tier.
type binaryEntrySource struct {
	keys  []string
	fetch func(key string) (core.Result, bool)
}

// WriteBinaryTo streams the cache (in-memory entries merged with any
// attached disk tier, minus keys for which skip returns true) to w in
// the binary snapshot format. Records stream one at a time — the full
// serialized snapshot never exists in memory; only the fixed-width
// index (20 bytes/entry) accumulates until the end.
func (c *Cache) WriteBinaryTo(w io.Writer, skip func(key string) bool) error {
	src := c.entrySource(skip)
	return writeBinary(w, src)
}

func writeBinary(w io.Writer, src binaryEntrySource) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerSize]byte
	copy(hdr[:4], binMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], binVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	off := uint64(headerSize)
	index := make([]idxEntry, 0, len(src.keys))
	var buf []byte
	for _, key := range src.keys {
		res, ok := src.fetch(key)
		if !ok {
			// Evicted between key enumeration and fetch, with no disk copy
			// to fall back on: the snapshot simply omits it.
			continue
		}
		buf = appendRecord(buf[:0], key, &res)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		index = append(index, idxEntry{hash: keyHash(key), off: off, size: uint32(len(buf))})
		off += uint64(len(buf))
	}
	sort.Slice(index, func(i, j int) bool {
		if index[i].hash != index[j].hash {
			return index[i].hash < index[j].hash
		}
		return index[i].off < index[j].off
	})
	indexOff := off
	ih := sha256.New()
	var ebuf [indexEntrySize]byte
	ih.Write([]byte{indexMarker})
	if err := bw.WriteByte(indexMarker); err != nil {
		return err
	}
	for _, e := range index {
		binary.LittleEndian.PutUint64(ebuf[0:8], e.hash)
		binary.LittleEndian.PutUint64(ebuf[8:16], e.off)
		binary.LittleEndian.PutUint32(ebuf[16:20], e.size)
		ih.Write(ebuf[:])
		if _, err := bw.Write(ebuf[:]); err != nil {
			return err
		}
	}
	var ftr [footerSize]byte
	binary.LittleEndian.PutUint64(ftr[0:8], indexOff)
	binary.LittleEndian.PutUint64(ftr[8:16], uint64(len(index)))
	copy(ftr[16:24], ih.Sum(nil)[:8])
	copy(ftr[28:32], footerMagic[:])
	if _, err := bw.Write(ftr[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// entrySource enumerates the cache's full key set (memory merged with
// the attached disk tier, skip applied) in sorted order with a fetch
// function resolving each key at write time. Holding c.mu only during
// enumeration and per-key fetch keeps long streaming writes from
// blocking concurrent simulations.
func (c *Cache) entrySource(skip func(key string) bool) binaryEntrySource {
	if c == nil {
		return binaryEntrySource{fetch: func(string) (core.Result, bool) { return core.Result{}, false }}
	}
	seen := map[string]bool{}
	var keys []string
	c.mu.Lock()
	for k := range c.entries {
		if skip != nil && skip(k) {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		disk.RangeKeys(func(key string, _ int) bool {
			if !seen[key] && (skip == nil || !skip(key)) {
				keys = append(keys, key)
			}
			return true
		})
	}
	sort.Strings(keys)
	return binaryEntrySource{
		keys: keys,
		fetch: func(key string) (core.Result, bool) {
			c.mu.Lock()
			if ce, ok := c.entries[key]; ok {
				res := ce.res
				c.mu.Unlock()
				return res, true
			}
			c.mu.Unlock()
			if disk != nil {
				if res, err := disk.Get(key); err == nil {
					return res, true
				}
			}
			return core.Result{}, false
		},
	}
}

// LoadStream merges a binary snapshot from r into the cache record by
// record with LoadBytes semantics, never buffering the whole snapshot: each
// record is length-prefixed, so the reader pulls exactly one record at a
// time, verifies its checksum and merges it (last-writer-wins). The
// trailing index and footer are drained and discarded — a streamed merge
// needs no random access.
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
			// legally end after its records — see writeBinary callers that
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
		need := int(keyLen) + int(resLen) + 8
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		if _, err := io.ReadFull(br, buf); err != nil {
			return added, replaced, err
		}
		rec := record{form: form, keyBytes: buf[:keyLen], resBytes: buf[keyLen : keyLen+resLen]}
		copy(rec.sum[:], buf[need-8:])
		key, err := rec.key()
		var res core.Result
		if err == nil {
			res, err = rec.decode(key)
		}
		if err != nil {
			c.countRejected()
			continue
		}
		if c.Store(key, res) {
			replaced++
		} else {
			added++
		}
	}
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
