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
// The cache is safe for concurrent use and deduplicates in-flight work
// through one claim per miss: a miss is simulated only if no configuration
// its trace cannot tell apart from it has been simulated on that trace
// here. The pair's trace-read alias class (sim.TraceCanonical over the
// trace's read profile, joined with the trace's digest) is single-flighted,
// so each class is simulated once whatever the scheduling, and every other
// miss in it — the same key asked for twice included — waits for that
// result and is answered with it, stored under its own key. Every persisted
// entry carries a checksum binding it to its key, so a corrupted or
// hand-edited record is rejected when touched rather than silently
// poisoning experiments.
//
// All methods are nil-receiver safe: a nil *Cache simply simulates every
// request, which lets callers thread "maybe a cache" through options
// structs without branching at each call site.
package simcache

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"

	"racesim/internal/core"
	"racesim/internal/par"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// Key identifies one simulation unit: a configuration fingerprint plus a
// trace content digest, "hex64:hex64". It is the string form of the 64
// bytes the cache stores the unit under (binary.go); RunBatch never builds
// it.
func Key(cfg sim.Config, tr *trace.Trace) string {
	return JoinKey(cfg.Fingerprint(), tr)
}

// JoinKey is Key for a configuration whose Fingerprint the caller already
// holds: a caller that runs one configuration on many traces fingerprints
// it once and joins it with each trace's digest.
func JoinKey(fingerprint string, tr *trace.Trace) string {
	return fingerprint + ":" + tr.Digest()
}

// Stats is a point-in-time snapshot of cache effectiveness. The JSON
// field names are part of the serve HTTP API (job results, /healthz).
type Stats struct {
	Hits        uint64 `json:"hits"`         // Run calls answered from memory or the attached disk tier
	Misses      uint64 `json:"misses"`       // Run calls neither tier answered: simulated, or aliased
	Shared      uint64 `json:"shared"`       // Run calls answered by an identical run in flight when they missed
	RemoteHits  uint64 `json:"remote_hits"`  // never written: kept for its only reader, benchmark/workloads.go, which is frozen
	Entries     int    `json:"entries"`      // distinct servable results (memory + unshadowed disk records)
	MemEntries  int    `json:"mem_entries"`  // results held in memory: simulated or imported here, never disk hits
	DiskEntries int    `json:"disk_entries"` // records indexed in the attached disk tier
	Rejected    uint64 `json:"rejected"`     // persisted entries dropped by checksum mismatch
	Evicted     uint64 `json:"evicted"`      // entries dropped by the memory budget
	// The work the misses did, by core kind: simulations run here and the
	// trace events they stepped. Unlike tape use, these do not depend on
	// scheduling.
	InOrderSims   uint64 `json:"inorder_sims"`
	InOrderEvents uint64 `json:"inorder_events"`
	OoOSims       uint64 `json:"ooo_sims"`
	OoOEvents     uint64 `json:"ooo_events"`
	// Aliased counts the misses answered with the result of a simulation
	// of their trace-read alias class instead of simulating: Misses is
	// the simulations plus Aliased.
	Aliased uint64 `json:"aliased"`
}

// AddDelta adds to s what happened between two snapshots of one cache's
// counters, before and now — every counter's difference — and now's entry
// counts, which are levels rather than counters.
func (s *Stats) AddDelta(now, before Stats) {
	s.Hits += now.Hits - before.Hits
	s.Misses += now.Misses - before.Misses
	s.Shared += now.Shared - before.Shared
	s.RemoteHits += now.RemoteHits - before.RemoteHits
	s.Entries += now.Entries
	s.MemEntries += now.MemEntries
	s.DiskEntries += now.DiskEntries
	s.Rejected += now.Rejected - before.Rejected
	s.Evicted += now.Evicted - before.Evicted
	s.InOrderSims += now.InOrderSims - before.InOrderSims
	s.InOrderEvents += now.InOrderEvents - before.InOrderEvents
	s.OoOSims += now.OoOSims - before.OoOSims
	s.OoOEvents += now.OoOEvents - before.OoOEvents
	s.Aliased += now.Aliased - before.Aliased
}

// Work is the figure a job's work: line prints: the simulations the misses
// ran and the trace events they stepped, by core kind.
func (s Stats) Work() string {
	return fmt.Sprintf("%d simulations (%d in-order, %d out-of-order), %d events stepped (%d in-order, %d out-of-order)",
		s.InOrderSims+s.OoOSims, s.InOrderSims, s.OoOSims,
		s.InOrderEvents+s.OoOEvents, s.InOrderEvents, s.OoOEvents)
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

// centry is one result held in memory — its snapshot record, which starts
// with its key (recordKey), and the index hash of that key — plus its LRU
// position.
type centry struct {
	rec  []byte        // the encoded record (newRecord); never written to once stored; nil once evicted
	hash uint64        // keyHash of the record's key, so no listing rehashes it
	seq  uint64        // the store that put it here (see Mark); 0 for an import
	elem *list.Element // value is the *centry
}

// entryMemSize estimates the memory held by one cache entry: its record,
// the centry and its LRU element (48 bytes each), and its map slot — a
// 64-byte key and a pointer at the map's load factor — with
// allocation rounding (128). The heap growth of a cache of 20 000 stored
// results is within 5% of it.
func entryMemSize(rec []byte) int64 {
	const overhead = 48 + 48 + 128
	return int64(len(rec)) + overhead
}

// Cache memoizes core.Results by simulation-unit key.
type Cache struct {
	mu       sync.Mutex
	mem      map[[keySize]byte]*centry // the memory tier, one record per key
	lru      *list.List                // front = most recent
	budget   int64                     // max memory bytes; 0 = unlimited
	memUsed  int64
	seq      uint64                 // results stored by a simulation or Store so far (Mark)
	disk     *Mapped                // attached binary snapshot, or nil
	shadowed int                    // memory keys stored over a disk record (for Entries)
	badDisk  map[[keySize]byte]bool // disk records already counted rejected
	// dirty records that the cache and the attached tier's file may have
	// parted ways — a result inserted or replaced, or a record rejected,
	// since the attach — so SaveFile to that file has to write. Hits on
	// the tier's own records leave it clear.
	dirty    bool
	hits     uint64
	misses   uint64
	shared   uint64
	rejected uint64
	evicted  uint64
	// Simulations run and trace events stepped, by core kind (workIndex),
	// and misses answered by an alias class instead.
	sims, events [2]uint64
	aliased      uint64
	// aliases maps each trace-read alias class simulated here to the
	// memory entry of the simulation that answers for it; aliasWait maps a
	// class being simulated to the channel its other misses wait on.
	aliases   map[aliasKey]*centry
	aliasWait map[aliasKey]chan struct{}
}

// aliasKey names a trace-read alias class: the digest of the
// configuration's sim.TraceCanonical form on the trace's read profile,
// and the trace's content digest. The configuration's decoder variant is
// in the first, so the pair names one decode.
type aliasKey struct {
	form   [32]byte
	digest string
}

// workIndex is the slot of Cache.sims and Cache.events that counts kind.
func workIndex(kind core.Kind) int {
	if kind == core.InOrder {
		return 0
	}
	return 1
}

// New returns an empty in-memory cache.
func New() *Cache {
	return &Cache{
		mem:       make(map[[keySize]byte]*centry),
		lru:       list.New(),
		aliases:   make(map[aliasKey]*centry),
		aliasWait: make(map[aliasKey]chan struct{}),
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

// insertLocked stores rec, an encoded record whose key hashes to hash,
// under its key (last-writer-wins) with store sequence seq, and applies the
// memory budget. It replaces what either tier held: a memory entry is
// overwritten, a disk record shadowed. The cache keeps rec, in the entry it
// returns. Caller holds c.mu.
func (c *Cache) insertLocked(rec []byte, hash, seq uint64) (ce *centry, replaced bool) {
	c.dirty = true
	key := recordKey(rec)
	if ce := c.mem[*key]; ce != nil {
		c.memUsed += int64(len(rec) - len(ce.rec))
		ce.rec, ce.seq = rec, seq
		c.lru.MoveToFront(ce.elem)
		return ce, true
	}
	ce = &centry{rec: rec, hash: hash, seq: seq}
	ce.elem = c.lru.PushFront(ce)
	c.mem[*key] = ce
	c.memUsed += entryMemSize(rec)
	if c.disk.holds(key, hash) {
		c.shadowed++
		replaced = true
	}
	c.evictLocked()
	return ce, replaced
}

// storeLocked is insertLocked for a result a simulation or Store produced:
// encoded once, here, and numbered in the store sequence. Caller holds
// c.mu.
func (c *Cache) storeLocked(rec []byte, hash uint64) (ce *centry, replaced bool) {
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
			key := recordKey(ce.rec)
			onDisk := c.disk.holds(key, ce.hash)
			if pass == 0 && !onDisk {
				continue
			}
			c.lru.Remove(e)
			delete(c.mem, *key)
			c.memUsed -= entryMemSize(ce.rec)
			ce.rec = nil // an alias class it answered for simulates again
			if onDisk {
				c.shadowed--
			}
			c.evicted++
		}
	}
}

// probe is the one lookup of both tiers: it returns the record the cache
// serves for key, whose index hash is h — the memory tier's, marked most
// recently used (mem), or else the attached snapshot's, not yet verified —
// or nil when neither holds key.
func (c *Cache) probe(key *[keySize]byte, h uint64) (rec []byte, mem bool) {
	c.mu.Lock()
	ce, disk := c.mem[*key], c.disk
	if ce != nil {
		c.lru.MoveToFront(ce.elem)
		rec = ce.rec
	}
	c.mu.Unlock()
	if rec != nil {
		return rec, true
	}
	r, ok := disk.find(key, h)
	if !ok {
		return nil, false
	}
	return r.bytes, false
}

// lookup decodes into dst the result the cache serves for key, whose index
// hash is h (probe), reporting whether it found one. A disk record that
// fails its checksum or does not decode is corrupt, and leaves part of a
// result in dst.
func (c *Cache) lookup(key *[keySize]byte, h uint64, dst *core.Result) (found, corrupt bool) {
	rec, mem := c.probe(key, h)
	switch {
	case rec == nil:
		return false, false
	case mem:
		decodeStored(rec, dst)
		return true, false
	}
	r, _ := parseRecord(rec) // the tier's record parses
	err := r.check(resultWords(dst))
	return err == nil, err != nil
}

// decodeStored decodes a memory-tier record into dst. Every stored record
// was encoded here or verified on import, so it decodes; the checksum is not
// re-proved.
func decodeStored(rec []byte, dst *core.Result) {
	r, err := parseRecord(rec)
	if err == nil {
		err = walkPayload(r.resBytes, resultWords(dst))
	}
	if err != nil {
		panic(fmt.Sprintf("simcache: a stored record does not decode: %v", err))
	}
}

// Store inserts a result under key, which must have Key's shape, with
// last-writer-wins semantics, reporting whether an existing entry, in
// memory or on disk, was replaced. It does not touch the hit/miss counters.
func (c *Cache) Store(key string, res core.Result) (replaced bool) {
	var k [keySize]byte
	if !packKey(key, &k) {
		panic(fmt.Sprintf("simcache: Store under %q, which is not a cache key", key))
	}
	return c.store(&k, &res)
}

func (c *Cache) store(key *[keySize]byte, res *core.Result) (replaced bool) {
	if c == nil {
		return false
	}
	rec := encodeRecord(key, res)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, replaced = c.storeLocked(rec, keyHash(key))
	return replaced
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
// Key(cfg, tr) (see JoinKey); a pair whose key does not have Key's shape is
// simulated uncached.
//
// A pair the cache holds costs one probe: the memory map, then one search
// of the snapshot's index, the record verified, decoded and counted as a
// hit — no claim, no copy. A record that is present but corrupt is counted
// rejected, simulated like a miss and shadowed in memory by the result. A
// miss joins its trace-read alias class (aliasOf): it is simulated only if
// no other configuration of the class has been, and otherwise answered with
// that one's stored result. Either way it counts as a miss, and its result
// is stored under its own key. A miss whose key was stored while it waited
// for its class counts as shared instead.
func (c *Cache) RunKeyed(key string, cfg sim.Config, tr *trace.Trace) (core.Result, error) {
	var k [keySize]byte
	if c == nil || !packKey(key, &k) {
		return cfg.Run(tr)
	}
	return c.run(&k, keyHash(&k), cfg, tr)
}

// run is RunKeyed for a key whose index hash is h.
func (c *Cache) run(key *[keySize]byte, h uint64, cfg sim.Config, tr *trace.Trace) (core.Result, error) {
	var res core.Result
	found, corrupt := c.lookup(key, h, &res)
	if found {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return res, nil
	}
	if corrupt {
		c.rejectDisk(key)
	}

	alias, aliasable := aliasOf(cfg, tr)
	c.mu.Lock()
	var rec []byte
	shared := false
	if aliasable {
		rec, shared = c.joinAliasLocked(alias, key)
	}
	switch {
	case shared:
		c.shared++
	case rec != nil:
		// rec answers for the class: its result, stored under key now, so a
		// miss on key that waited with this one finds it.
		c.misses++
		c.aliased++
		r, _ := parseRecord(rec) // a stored record parses
		c.storeLocked(newRecord(key, r.resBytes), h)
	}
	c.mu.Unlock()
	if rec != nil {
		decodeStored(rec, &res)
		return res, nil
	}

	// Claimed (or, with no class to claim, a pair that fails anyway):
	// simulate.
	res, err := cfg.Run(tr)
	if err == nil {
		rec = encodeRecord(key, &res)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	c.sims[workIndex(cfg.Kind)]++
	c.events[workIndex(cfg.Kind)] += res.Instructions
	var ce *centry
	if err == nil {
		ce, _ = c.storeLocked(rec, h)
	}
	if aliasable {
		c.publishAliasLocked(alias, ce)
	}
	return res, err
}

// aliasOf returns the trace-read alias class of cfg on tr, and whether
// there is one to join: a configuration that does not validate fails its
// own simulation, and a trace that did not decode fails every one. It
// decodes tr, which the simulation needs anyway.
func aliasOf(cfg sim.Config, tr *trace.Trace) (aliasKey, bool) {
	if core.Config(cfg).Validate() != nil {
		return aliasKey{}, false
	}
	d := tr.Decoded(cfg.DecoderDepBug)
	if d.Err != nil {
		return aliasKey{}, false
	}
	return aliasKey{form: sim.TraceCanonical(cfg, sim.ProfileOf(d)).FingerprintSum(), digest: tr.Digest()}, true
}

// joinAliasLocked is the one claim a miss on key in alias class k takes.
// It waits while another miss of the class simulates, then returns key's
// own record if one was stored meanwhile (shared), or else the stored
// record of the simulation that answers for k; otherwise it claims k and
// returns nil: the caller then simulates and ends the claim with
// publishAliasLocked. A class whose entry the memory budget evicted is
// claimed again. Caller holds c.mu, which is let go while it waits.
func (c *Cache) joinAliasLocked(k aliasKey, key *[keySize]byte) (rec []byte, shared bool) {
	for {
		if ce := c.mem[*key]; ce != nil {
			c.lru.MoveToFront(ce.elem)
			return ce.rec, true
		}
		wait, ok := c.aliasWait[k]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-wait
		c.mu.Lock()
	}
	if ce := c.aliases[k]; ce != nil && ce.rec != nil {
		return ce.rec, false
	}
	c.aliasWait[k] = make(chan struct{})
	return nil, false
}

// publishAliasLocked ends the caller's claim of class k: ce, the entry its
// simulation stored, answers for the class from now on (nil: the
// simulation failed, and the next miss in the class simulates). Caller
// holds c.mu.
func (c *Cache) publishAliasLocked(k aliasKey, ce *centry) {
	if ce != nil {
		c.aliases[k] = ce
	} else {
		delete(c.aliases, k)
	}
	close(c.aliasWait[k])
	delete(c.aliasWait, k)
}

// RunBatch returns the memoized result of every (cfgs[i], trs[j]) pair. It
// is the one way to submit more than one simulation: a caller hands over
// its configs x traces grid, and each pair is resolved exactly as Run
// resolves it — so a pair repeated inside the grid, or submitted by a
// concurrent caller, is simulated once.
//
// The pairs a tier holds are answered first, on the caller's goroutine
// (answerHits): each configuration is fingerprinted once, and a hit costs
// one probe and a decode into its result slot — no key string, no copy, no
// hand-off. Only the pairs left — misses, records that fail their
// checksum, pairs in flight elsewhere — are resolved as RunKeyed resolves
// them, under the keys the hit pass built, on at most parallelism workers
// (<=1: one after the other).
//
// The results go into dst's storage, grown to the grid when it is too
// small (nil: allocated), and are returned in caller order,
// configuration-major: pair (i, j) is out[i*len(trs)+j]. A caller that
// scores a grid and keeps no result hands the same storage back grid after
// grid, so a warm grid allocates nothing per pair. The error is the
// lowest-indexed failing pair's, whatever the completion order, and names
// its configuration and trace; it stops dispatch, and pairs that completed
// stay memoized. Cancelling ctx (nil: never cancelled) stops dispatch
// within one simulation and reports ctx.Err(); a grid under a context
// cancelled already looks nothing up. A nil receiver simulates every pair.
func (c *Cache) RunBatch(ctx context.Context, cfgs []sim.Config, trs []*trace.Trace, parallelism int, dst []core.Result) ([]core.Result, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	out := slices.Grow(dst[:0], len(cfgs)*len(trs))[:len(cfgs)*len(trs)]
	pending := c.answerHits(cfgs, trs, out)
	if len(pending) == 0 {
		return out, nil
	}
	err := par.ForEachCtx(ctx, len(pending), parallelism, func(n int) error {
		p := &pending[n]
		i, tr := p.pair/len(trs), trs[p.pair%len(trs)]
		var err error
		if p.keyed {
			out[p.pair], err = c.run(&p.key, p.hash, cfgs[i], tr)
		} else {
			out[p.pair], err = cfgs[i].Run(tr)
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

// Peek looks a stored result up without simulating and without touching
// the hit/miss counters: across the memory and disk tiers as RunKeyed does
// — a disk record is verified and decoded, not kept — leaving the cache as
// it found it, except that a corrupt record is counted rejected.
func (c *Cache) Peek(key string) (core.Result, bool) {
	var k [keySize]byte
	if !packKey(key, &k) {
		return core.Result{}, false
	}
	return c.peek(&k)
}

func (c *Cache) peek(key *[keySize]byte) (core.Result, bool) {
	if c == nil {
		return core.Result{}, false
	}
	var res core.Result
	found, corrupt := c.lookup(key, keyHash(key), &res)
	if corrupt {
		c.rejectDisk(key)
	}
	if !found {
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

		InOrderSims:   c.sims[0],
		InOrderEvents: c.events[0],
		OoOSims:       c.sims[1],
		OoOEvents:     c.events[1],
		Aliased:       c.aliased,
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
