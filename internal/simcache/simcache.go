// Package simcache memoizes simulation results across experiments and
// tuning races. A single (sim.Config, trace) pair is simulated at most
// once per cache: the key is the configuration's canonical-JSON
// fingerprint joined with the trace content digest, so any code path that
// re-evaluates a configuration the survivor set already measured — the
// experiment runner, the irace evaluator, the perturbation study — gets
// the stored core.Result back instead of re-running the timing model.
//
// The cache is a storage tier with two levels, consulted in order:
//
//   - memory: the results this process simulated or imported (Store,
//     LoadStream), under an LRU with an optional byte budget
//     (SetMemoryBudget), so a long-lived serve process stays bounded;
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
	"reflect"
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
// holds. The fingerprint (a canonical-JSON marshal and a hash) is nearly
// all of a key's cost, so a caller that runs one configuration on many
// traces fingerprints it once and joins it with each trace's digest.
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

// centry is one result held in memory plus its LRU position.
type centry struct {
	res  core.Result
	elem *list.Element // value is the key string
}

// resultMemSize is the in-memory footprint of one core.Result (all
// uint64 fields, no pointers), computed once.
var resultMemSize = int64(reflect.TypeOf(core.Result{}).Size())

// entryMemSize estimates the memory held by one cache entry: the
// result, the key string, and map/list bookkeeping overhead.
func entryMemSize(key string) int64 {
	const overhead = 128
	return resultMemSize + int64(len(key)) + overhead
}

// Cache memoizes core.Results by simulation-unit key.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*centry
	lru      *list.List // front = most recent
	budget   int64      // max memory bytes; 0 = unlimited
	memUsed  int64
	disk     *Mapped // attached binary snapshot, or nil
	shadowed int     // memory keys stored over a disk record (for Entries)
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
		entries: make(map[string]*centry),
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

// insertLocked stores res under key (last-writer-wins) and applies the
// memory budget. It replaces what either tier held: a memory entry is
// overwritten, a disk record shadowed. Caller holds c.mu.
func (c *Cache) insertLocked(key string, res core.Result) (replaced bool) {
	c.dirty = true
	if ce, ok := c.entries[key]; ok {
		ce.res = res
		c.lru.MoveToFront(ce.elem)
		return true
	}
	ce := &centry{res: res, elem: c.lru.PushFront(key)}
	c.entries[key] = ce
	c.memUsed += entryMemSize(key)
	if c.disk.Has(key) {
		c.shadowed++
		replaced = true
	}
	c.evictLocked()
	return replaced
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
			key := e.Value.(string)
			if pass == 0 && !c.disk.Has(key) {
				continue
			}
			c.lru.Remove(e)
			delete(c.entries, key)
			c.memUsed -= entryMemSize(key)
			if c.disk.Has(key) {
				c.shadowed--
			}
			c.evicted++
		}
	}
}

// memoryLocked answers key from the memory tier, marking the entry most
// recently used. Caller holds c.mu.
func (c *Cache) memoryLocked(key string) (core.Result, bool) {
	ce, ok := c.entries[key]
	if !ok {
		return core.Result{}, false
	}
	c.lru.MoveToFront(ce.elem)
	return ce.res, true
}

// Store inserts a result under key with last-writer-wins semantics,
// reporting whether an existing entry, in memory or on disk, was replaced.
// It is the merge primitive used by snapshot loading; it does not touch the
// hit/miss counters.
func (c *Cache) Store(key string, res core.Result) (replaced bool) {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(key, res)
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
	res, ok := c.memoryLocked(key)
	var diskErr error
	if disk := c.disk; !ok && disk != nil {
		c.mu.Unlock()
		res, diskErr = disk.Get(key)
		c.mu.Lock()
		ok = diskErr == nil
		if !ok {
			// The lock was let go: the pair may have been simulated since.
			res, ok = c.memoryLocked(key)
		}
	}
	if ok {
		c.hits++
		c.mu.Unlock()
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
		c.rejectLocked() // the record is there and corrupt
	}
	c.mu.Unlock()

	fl.res, fl.err = cfg.Run(tr)
	c.mu.Lock()
	c.misses++
	if fl.err == nil {
		c.insertLocked(key, fl.res)
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
	res, ok := c.memoryLocked(key)
	disk := c.disk
	c.mu.Unlock()
	if ok || disk == nil {
		return res, ok
	}
	res, err := disk.Get(key)
	if err != nil {
		if err != errNoRecord {
			c.countRejected()
		}
		return core.Result{}, false
	}
	return res, true
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
		Entries:     len(c.entries) + c.disk.Count() - c.shadowed,
		MemEntries:  len(c.entries),
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
	c.mu.Unlock()
	return disk.Close()
}
