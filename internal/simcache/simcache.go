// Package simcache memoizes simulation results across experiments and
// tuning races. A single (sim.Config, trace) pair is simulated at most
// once per cache: the key is the fingerprint of the configuration's
// canonical form (sim.Canonical: no Name, and every tunable its models do
// not read at its first value) joined with the trace content digest, so
// configurations that simulate identically share one entry, and any code
// path that re-evaluates a configuration the survivor set already measured
// — the experiment runner, the irace evaluator, the perturbation study —
// gets the stored core.Result back instead of re-running the timing model.
//
// The cache is a storage tier with two levels, consulted in order:
//
//   - memory: the results this process simulated or imported (Store,
//     LoadStream), each held as its encoded snapshot record — the bytes a
//     snapshot file and a transfer carry, decoded on a hit — under an LRU
//     with an optional byte budget (SetMemoryBudget), so a long-lived
//     serve process stays bounded;
//   - disk: an mmap-backed binary snapshot attached by LoadFile/
//     LoadChecked — a lookup is one search of its index and decodes one
//     record, never the whole file. A disk hit counts as a hit and is
//     answered from the mapping every time: it is never copied into
//     memory, so a snapshot-backed process does not grow with its hits.
//
// Results cross a process boundary one way only: as a snapshot (merge.go).
//
// The cache is safe for concurrent use and deduplicates in-flight work:
// when two workers ask for the same unit simultaneously and neither tier
// holds it, one simulates and the other blocks on that result
// (singleflight). Every persisted entry carries a checksum binding it
// to its key, so a corrupted or hand-edited record is rejected when
// touched rather than silently poisoning experiments.
//
// All methods are nil-receiver safe: a nil *Cache simply simulates every
// request, which lets callers thread "maybe a cache" through options
// structs without branching at each call site.
package simcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"racesim/internal/core"
	"racesim/internal/par"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// Key identifies one simulation unit: a configuration fingerprint plus a
// trace content digest.
func Key(cfg sim.Config, tr *trace.Trace) string {
	return JoinKey(cfg.Fingerprint(), tr)
}

// JoinKey is Key for a configuration whose Fingerprint the caller already
// holds. The fingerprint (a canonical copy, a reflective binary encoding
// and a hash) is nearly all of a key's cost, so a caller that runs one
// configuration on many traces fingerprints it once and joins it with each
// trace's digest.
func JoinKey(fingerprint string, tr *trace.Trace) string {
	return fingerprint + ":" + tr.Digest()
}

// Stats is a point-in-time snapshot of cache effectiveness. The JSON
// field names are part of the serve HTTP API (job results, /healthz).
type Stats struct {
	Hits        uint64 `json:"hits"`         // Run calls answered from memory or the attached disk tier
	Misses      uint64 `json:"misses"`       // Run calls that simulated
	Shared      uint64 `json:"shared"`       // Run calls that waited on an identical in-flight run
	RemoteHits  uint64 `json:"remote_hits"`  // never written: kept for its only reader, benchmark/workloads.go, which is frozen
	Entries     int    `json:"entries"`      // distinct servable results (memory + unshadowed disk records)
	MemEntries  int    `json:"mem_entries"`  // results held in memory: simulated or imported here, never disk hits
	DiskEntries int    `json:"disk_entries"` // records indexed in the attached disk tier
	Rejected    uint64 `json:"rejected"`     // persisted entries dropped by checksum mismatch
	Evicted     uint64 `json:"evicted"`      // entries dropped by the memory budget
}

// HitRate returns the fraction of lookups that avoided simulating —
// memory/disk hits and shared in-flight waits — or 0 before any lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Shared
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// inflight tracks one simulation in progress so duplicates can wait on it.
type inflight struct {
	done chan struct{}
	res  core.Result
	err  error
}

// centry is one result held in memory — its snapshot record and the index
// hash of its key — plus its LRU position.
type centry struct {
	rec  []byte        // the encoded record (appendRecord); never written to once stored
	hash uint64        // keyHash of the record's key, so no listing unpacks it
	seq  uint64        // the store that put it here (see Mark); 0 for an import
	elem *list.Element // value is the *centry
}

// entryMemSize estimates the memory held by one cache entry: its record,
// the centry and its LRU element (48 bytes each), and its map slot — a
// 64-byte packed key and a pointer at the map's load factor — with
// allocation rounding (128). The heap growth of a cache of 20 000 stored
// results is within 5% of it.
func entryMemSize(rec []byte) int64 {
	const overhead = 48 + 48 + 128
	return int64(len(rec)) + overhead
}

// Cache memoizes core.Results by simulation-unit key.
type Cache struct {
	mu sync.Mutex
	// The memory tier, one record per key: packed holds "hex64:hex64" keys
	// by their packed form (packKey), so storing one allocates no key
	// string; raw holds every other key.
	packed   map[[64]byte]*centry
	raw      map[string]*centry
	lru      *list.List // front = most recent
	budget   int64      // max memory bytes; 0 = unlimited
	memUsed  int64
	seq      uint64          // results stored by a simulation or Store so far (Mark)
	disk     *Mapped         // attached binary snapshot, or nil
	shadowed int             // memory keys stored over a disk record (for Entries)
	badDisk  map[string]bool // disk records already counted rejected
	// dirty records that the cache and the attached tier's file may have
	// parted ways — a result inserted or replaced, or a record rejected,
	// since the attach — so SaveFile to that file has to write. Hits on
	// the tier's own records leave it clear.
	dirty    bool
	running  map[string]*inflight
	hits     uint64
	misses   uint64
	shared   uint64
	rejected uint64
	evicted  uint64
}

// New returns an empty in-memory cache.
func New() *Cache {
	return &Cache{
		packed:  make(map[[64]byte]*centry),
		raw:     make(map[string]*centry),
		lru:     list.New(),
		running: make(map[string]*inflight),
	}
}

// SetMemoryBudget bounds the memory tier to roughly budget bytes;
// least-recently-used entries are evicted past it. An evicted entry that
// the disk tier also holds is answered from there afterwards; one held
// nowhere else is lost from future snapshots and simulated again when next
// asked for. Zero means unlimited (the default).
func (c *Cache) SetMemoryBudget(budget int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.budget = budget
	c.evictLocked()
	c.mu.Unlock()
}

// OnDisk reports whether the attached disk tier indexes key (without
// decoding or verifying the record), whether or not memory holds a result
// over it. False when no tier is attached.
func (c *Cache) OnDisk(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	disk := c.disk
	c.mu.Unlock()
	return disk.Has(key)
}

// entryLocked returns the memory entry for a key in its stored form, or
// nil. Caller holds c.mu.
func (c *Cache) entryLocked(form byte, keyBytes []byte) *centry {
	if form == keyformHexHex {
		return c.packed[[64]byte(keyBytes)]
	}
	return c.raw[string(keyBytes)]
}

// insertLocked stores rec, an encoded record whose key hashes to hash,
// under its key (last-writer-wins) with store sequence seq, and applies the
// memory budget. It replaces what either tier held: a memory entry is
// overwritten, a disk record shadowed. The cache keeps rec. Caller holds
// c.mu.
func (c *Cache) insertLocked(rec []byte, hash, seq uint64) (replaced bool) {
	c.dirty = true
	r, _ := parseRecord(rec) // the caller's record parses
	if ce := c.entryLocked(r.form, r.keyBytes); ce != nil {
		c.memUsed += int64(len(rec) - len(ce.rec))
		ce.rec, ce.seq = rec, seq
		c.lru.MoveToFront(ce.elem)
		return true
	}
	ce := &centry{rec: rec, hash: hash, seq: seq}
	ce.elem = c.lru.PushFront(ce)
	if r.form == keyformHexHex {
		c.packed[[64]byte(r.keyBytes)] = ce
	} else {
		c.raw[string(r.keyBytes)] = ce
	}
	c.memUsed += entryMemSize(rec)
	if c.disk.holds(&r, hash) {
		c.shadowed++
		replaced = true
	}
	c.evictLocked()
	return replaced
}

// storeLocked is insertLocked for a result a simulation or Store produced:
// encoded once, here, and numbered in the store sequence. Caller holds
// c.mu.
func (c *Cache) storeLocked(rec []byte, hash uint64) (replaced bool) {
	c.seq++
	return c.insertLocked(rec, hash, c.seq)
}

// evictLocked drops LRU entries until the memory budget is met,
// preferring entries the disk tier also holds. Caller holds c.mu.
func (c *Cache) evictLocked() {
	if c.budget <= 0 || c.memUsed <= c.budget {
		return
	}
	// First pass: evict disk-backed entries (lossless — the record is
	// still on disk). Second pass: evict anything; the budget is a hard
	// bound.
	for pass := 0; pass < 2 && c.memUsed > c.budget; pass++ {
		var next *list.Element
		for e := c.lru.Back(); e != nil && c.memUsed > c.budget; e = next {
			next = e.Prev()
			ce := e.Value.(*centry)
			r, _ := parseRecord(ce.rec)
			onDisk := c.disk.holds(&r, ce.hash)
			if pass == 0 && !onDisk {
				continue
			}
			c.lru.Remove(e)
			if r.form == keyformHexHex {
				delete(c.packed, [64]byte(r.keyBytes))
			} else {
				delete(c.raw, string(r.keyBytes))
			}
			c.memUsed -= entryMemSize(ce.rec)
			if onDisk {
				c.shadowed--
			}
			c.evicted++
		}
	}
}

// memoryLocked returns the memory tier's record for key, marking the entry
// most recently used, or nil. Caller holds c.mu.
func (c *Cache) memoryLocked(key string) []byte {
	if c.lru.Len() == 0 {
		return nil // a process answering from its snapshot alone packs no key here
	}
	var packed [64]byte
	var ce *centry
	if packHexHex(key, &packed) {
		ce = c.packed[packed]
	} else {
		ce = c.raw[key]
	}
	if ce == nil {
		return nil
	}
	c.lru.MoveToFront(ce.elem)
	return ce.rec
}

// storedResult decodes a memory-tier record. Every stored record was
// encoded here or verified on import, so it decodes; the checksum is not
// re-proved.
func storedResult(rec []byte) core.Result {
	r, err := parseRecord(rec)
	var res core.Result
	if err == nil {
		res, err = decodeResult(r.resBytes)
	}
	if err != nil {
		panic(fmt.Sprintf("simcache: a stored record does not decode: %v", err))
	}
	return res
}

// Store inserts a result under key with last-writer-wins semantics,
// reporting whether an existing entry, in memory or on disk, was replaced.
// It is the merge primitive used by snapshot loading; it does not touch the
// hit/miss counters.
func (c *Cache) Store(key string, res core.Result) (replaced bool) {
	if c == nil {
		return false
	}
	rec := appendRecord(nil, key, &res)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeLocked(rec, keyHash(key))
}

// Run returns the memoized result for (cfg, tr), resolving through the
// tiers — memory, attached disk snapshot — and simulating only when both
// are cold. A nil receiver runs the simulation
// directly.
func (c *Cache) Run(cfg sim.Config, tr *trace.Trace) (core.Result, error) {
	if c == nil {
		return cfg.Run(tr)
	}
	return c.RunKeyed(Key(cfg, tr), cfg, tr)
}

// RunKeyed is Run for a caller that already holds key, which must be
// Key(cfg, tr) (see JoinKey).
//
// A pair the cache holds costs one probe: the memory map, then one search
// of the snapshot's index, the record verified, decoded and counted as a
// hit — no claim, no copy. Only a pair neither tier answers takes the
// inflight claim, so that concurrent identical requests wait on the one
// simulation; a record that is present but corrupt is counted rejected by
// whoever claims, simulated like a miss and shadowed in memory by the
// result.
func (c *Cache) RunKeyed(key string, cfg sim.Config, tr *trace.Trace) (core.Result, error) {
	if c == nil {
		return cfg.Run(tr)
	}

	c.mu.Lock()
	rec := c.memoryLocked(key)
	hit := rec != nil
	var res core.Result
	var diskErr error
	if disk := c.disk; !hit && disk != nil {
		c.mu.Unlock()
		res, diskErr = disk.Get(key)
		c.mu.Lock()
		if hit = diskErr == nil; !hit {
			// The lock was let go: the pair may have been simulated since.
			rec = c.memoryLocked(key)
			hit = rec != nil
		}
	}
	if hit {
		c.hits++
		c.mu.Unlock()
		if rec != nil {
			res = storedResult(rec)
		}
		return res, nil
	}
	if fl, ok := c.running[key]; ok {
		c.shared++
		c.mu.Unlock()
		<-fl.done
		return fl.res, fl.err
	}
	fl := &inflight{done: make(chan struct{})}
	c.running[key] = fl
	if diskErr != nil && diskErr != errNoRecord {
		c.rejectDiskLocked(key) // the record is there and corrupt
	}
	c.mu.Unlock()

	fl.res, fl.err = cfg.Run(tr)
	var hash uint64
	if fl.err == nil {
		rec, hash = appendRecord(nil, key, &fl.res), keyHash(key)
	}
	c.mu.Lock()
	c.misses++
	if fl.err == nil {
		c.storeLocked(rec, hash)
	}
	delete(c.running, key)
	c.mu.Unlock()
	close(fl.done)
	return fl.res, fl.err
}

// RunBatch returns the memoized result of every (cfgs[i], trs[j]) pair. It
// is the one way to submit more than one simulation: a caller hands over
// its configs x traces grid and the pairs are scheduled on at most
// parallelism workers (<=1: one after the other), each resolved exactly as
// Run resolves it — so a pair repeated inside the grid, or submitted by a
// concurrent caller, is simulated once. Each configuration is fingerprinted
// once, not once per trace (a trace memoizes its own digest).
//
// Results are in caller order, configuration-major: pair (i, j) is
// out[i*len(trs)+j]. The error is the lowest-indexed failing pair's,
// whatever the completion order, and names its configuration and trace; it
// stops dispatch, and pairs that completed stay memoized. Cancelling ctx
// (nil: never cancelled) stops dispatch within one simulation and reports
// ctx.Err(). A nil receiver simulates every pair.
func (c *Cache) RunBatch(ctx context.Context, cfgs []sim.Config, trs []*trace.Trace, parallelism int) ([]core.Result, error) {
	fps := make([]string, len(cfgs))
	if c != nil {
		for i, cfg := range cfgs {
			fps[i] = cfg.Fingerprint()
		}
	}
	out := make([]core.Result, len(cfgs)*len(trs))
	err := par.ForEachCtx(ctx, len(out), parallelism, func(k int) error {
		i, tr := k/len(trs), trs[k%len(trs)]
		var err error
		if c == nil {
			out[k], err = cfgs[i].Run(tr) // no key to build: digesting tr would be the only cost
		} else {
			out[k], err = c.RunKeyed(JoinKey(fps[i], tr), cfgs[i], tr)
		}
		if err != nil {
			return fmt.Errorf("simulating %s on %s: %w", cfgs[i].Name, tr.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Get looks up a stored result without simulating and without touching the
// hit/miss counters.
func (c *Cache) Get(cfg sim.Config, tr *trace.Trace) (core.Result, bool) {
	if c == nil {
		return core.Result{}, false
	}
	return c.Peek(Key(cfg, tr))
}

// Peek is Get for a caller that holds the key: it looks key up across the
// memory and disk tiers as RunKeyed does — a disk record is verified and
// decoded, not kept — and leaves the cache as it found it, except that a
// corrupt record is counted rejected.
func (c *Cache) Peek(key string) (core.Result, bool) {
	if c == nil {
		return core.Result{}, false
	}
	c.mu.Lock()
	rec := c.memoryLocked(key)
	disk := c.disk
	c.mu.Unlock()
	if rec != nil {
		return storedResult(rec), true
	}
	if disk == nil {
		return core.Result{}, false
	}
	res, err := disk.Get(key)
	if err != nil {
		if err != errNoRecord {
			c.rejectDisk(key)
		}
		return core.Result{}, false
	}
	return res, true
}

// Mark returns the cache's store sequence: how many results a simulation
// or Store has put in memory so far. WriteDeltaTo(w, Mark()) exports what
// is stored after the call; an import never counts.
func (c *Cache) Mark() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Stats snapshots the counters. Safe on a nil receiver.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Shared:      c.shared,
		Entries:     c.lru.Len() + c.disk.Count() - c.shadowed,
		MemEntries:  c.lru.Len(),
		DiskEntries: c.disk.Count(),
		Rejected:    c.rejected,
		Evicted:     c.evicted,
	}
}

// Disk returns the attached mmap-backed snapshot tier, or nil.
func (c *Cache) Disk() *Mapped {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// Close detaches and unmaps the disk tier, if any. The cache itself
// remains usable (memory tier only).
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	disk := c.disk
	c.disk = nil
	c.shadowed = 0
	c.badDisk = nil
	c.mu.Unlock()
	return disk.Close()
}
