package simcache

import (
	"encoding/hex"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// gridKey is the key of one pair of a RunBatch grid, built without its
// string: the configuration half once per configuration, the trace half per
// pair. A key is always "hex64:hex64", the form the tiers store packed.
type gridKey struct {
	spelled [129]byte // the key string, hex(fingerprint) ":" digest
	packed  [64]byte  // its packed form (packKey): fingerprint sum ‖ digest bytes
	prefix  uint64    // the FNV-1a state after spelled[:65]
}

// setConfig starts the keys of a configuration whose FingerprintSum is sum.
func (g *gridKey) setConfig(sum *[32]byte) {
	hex.Encode(g.spelled[:64], sum[:])
	g.spelled[64] = ':'
	copy(g.packed[:32], sum[:])
	g.prefix = keyHash(g.spelled[:65])
}

// setTrace completes the key with a trace's digest and returns the key's
// index hash, keyHash of the key string.
func (g *gridKey) setTrace(d *digest) uint64 {
	copy(g.spelled[65:], d.hex)
	copy(g.packed[32:], d.raw[:])
	return fnvAppend(g.prefix, d.hex)
}

// digest is a trace's content digest as a key's second half spells it and
// as the packed key stores it; ok is false for a digest that is not 64
// lowercase hex digits, whose keys the grid leaves to RunKeyed.
type digest struct {
	hex string
	raw [32]byte
	ok  bool
}

func parseDigest(s string) (d digest) {
	d.hex = s
	if len(s) != 2*len(d.raw) {
		return d
	}
	for i := range d.raw {
		hi, ok1 := lowerNibble(s[2*i])
		lo, ok2 := lowerNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return d
		}
		d.raw[i] = hi<<4 | lo
	}
	d.ok = true
	return d
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

// answerHits is RunBatch's hit pass, run on the caller's goroutine. Every
// pair a tier answers — memory, then the attached snapshot, whose record
// must pass its checksum and decode — is decoded straight into its slot of
// out and counted a hit, as RunKeyed would answer it, but with no key string
// and no copy of the result. It returns the other pairs in caller order
// (misses, records that fail, pairs in flight elsewhere) and the fingerprint
// of every configuration that has one, for RunKeyed to resolve. A nil
// receiver answers nothing.
func (c *Cache) answerHits(cfgs []sim.Config, trs []*trace.Trace, out []core.Result) (pending []int, fps []string) {
	if c == nil {
		pending = make([]int, len(out))
		for k := range pending {
			pending[k] = k
		}
		return pending, nil
	}
	var stack [16]digest // a grid's traces nearly always fit
	digests := stack[:0]
	for _, tr := range trs {
		digests = append(digests, parseDigest(tr.Digest()))
	}
	c.mu.Lock()
	disk := c.disk
	c.mu.Unlock()
	var g gridKey
	hits := uint64(0)
	for i := range cfgs {
		sum := cfgs[i].FingerprintSum()
		g.setConfig(&sum)
		for j := range digests {
			k := i*len(trs) + j
			if d := &digests[j]; d.ok && c.hit(disk, &g, g.setTrace(d), &out[k]) {
				hits++
				continue
			}
			if fps == nil {
				fps = make([]string, len(cfgs))
			}
			if fps[i] == "" {
				fps[i] = string(g.spelled[:64])
			}
			pending = append(pending, k)
		}
	}
	if hits > 0 {
		c.mu.Lock()
		c.hits += hits
		c.mu.Unlock()
	}
	return pending, fps
}

// hit resolves g's key, whose index hash is h, as RunKeyed's probe does —
// the memory tier, then one index search of disk — decoding what it finds
// into dst. It reports false for a key neither tier holds and for a disk
// record that fails its checksum or does not decode; dst may then hold part
// of a result.
func (c *Cache) hit(disk *Mapped, g *gridKey, h uint64, dst *core.Result) bool {
	c.mu.Lock()
	rec := c.packedLocked(&g.packed)
	c.mu.Unlock()
	if rec != nil {
		decodeStored(rec, dst)
		return true
	}
	r, ok := disk.findStored(keyformHexHex, g.packed[:], h)
	return ok && recordSum(g.spelled[:], r.resBytes) == r.sum && walkPayload(r.resBytes, resultWords(dst)) == nil
}
