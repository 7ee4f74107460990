package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"racesim/internal/core"
	"racesim/internal/trace"
)

// Trace identities ride the cache as ordinary entries under keys of their
// own, so every way a cache travels — snapshots, merge, federation
// pre-seed and delta — carries them without knowing: what a trace memo key
// generated (its event count, WarmData flag and content digest, see
// trace.Identity), packed into a core.Result. With
// them a process that finds all its results in a snapshot also finds the
// digests those results are keyed by, and generates no trace at all.
//
// A memo key covers a generator's parameters, not its code, so an identity
// is only good for the build that wrote it: the entry key hashes the build
// ID in with the memo key. Results stay content-addressed and survive
// rebuilds; a new build generates each trace once, finds every result
// still valid, and writes identities of its own beside the old ones.

// identityTag is the second half of every trace identity's key, where a
// simulation key holds its trace's digest: no trace digests to it.
var identityTag = sha256.Sum256([]byte("racesim trace identity"))

// IsTraceIdentity reports whether key, as Keys lists it, is a trace
// identity's rather than a simulation's.
func IsTraceIdentity(key string) bool {
	var k [keySize]byte
	return packKey(key, &k) && [32]byte(k[32:]) == identityTag
}

// TraceIdentities is a cache seen as a store of trace identities, for one
// build (tracememo.IdentityStore). A nil *TraceIdentities remembers
// nothing.
type TraceIdentities struct {
	cache *Cache
	build string
}

// TraceIdentities returns the cache's identity store for the build with
// the given ID (version.BuildID). It is nil — nothing is trusted, nothing
// written — on a nil cache or when the build cannot name itself.
func (c *Cache) TraceIdentities(build string) *TraceIdentities {
	if c == nil || build == "" {
		return nil
	}
	return &TraceIdentities{cache: c, build: build}
}

// key is the entry key of what this build generated under memoKey:
// sha256(build, 0, memoKey) and identityTag.
func (s *TraceIdentities) key(memoKey string) *[keySize]byte {
	h := sha256.New()
	h.Write([]byte(s.build))
	h.Write([]byte{0})
	h.Write([]byte(memoKey))
	var key [keySize]byte
	h.Sum(key[:0])
	copy(key[32:], identityTag[:])
	return &key
}

// LookupIdentity returns what this build generated under memoKey, if the
// cache — memory or the attached snapshot — remembers. Like Peek it moves
// no hit or miss counter and leaves the cache as clean as it found it.
func (s *TraceIdentities) LookupIdentity(memoKey string) (trace.Identity, bool) {
	if s == nil {
		return trace.Identity{}, false
	}
	res, ok := s.cache.peek(s.key(memoKey))
	if !ok {
		return trace.Identity{}, false
	}
	return unpackIdentity(res), true
}

// RecordIdentity remembers that this build generated tr under memoKey,
// Store-style: no counter moves, the next save writes it. It digests tr.
func (s *TraceIdentities) RecordIdentity(memoKey string, tr *trace.Trace) {
	if s == nil {
		return
	}
	if res, ok := packIdentity(tr.Identity()); ok {
		s.cache.store(s.key(memoKey), &res)
	}
}

// packIdentity lays an identity out in a core.Result: the event count as
// Instructions, the WarmData flag as Cycles, the digest's 32 bytes as the
// first four ClassCounts. ok is false for a digest that is not 32 bytes of
// hex, which no trace has.
func packIdentity(id trace.Identity) (res core.Result, ok bool) {
	sum, err := hex.DecodeString(id.Digest)
	if err != nil || len(sum) != sha256.Size {
		return core.Result{}, false
	}
	res.Instructions = uint64(id.Len)
	if id.WarmData {
		res.Cycles = 1
	}
	for i := 0; i < 4; i++ {
		res.ClassCounts[i] = binary.BigEndian.Uint64(sum[8*i:])
	}
	return res, true
}

// unpackIdentity is packIdentity's inverse.
func unpackIdentity(res core.Result) trace.Identity {
	var sum [sha256.Size]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(sum[8*i:], res.ClassCounts[i])
	}
	return trace.Identity{
		Len:      int(res.Instructions),
		WarmData: res.Cycles != 0,
		Digest:   hex.EncodeToString(sum[:]),
	}
}
