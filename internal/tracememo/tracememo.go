// Package tracememo memoizes generated traces — and, transitively, their
// content digests and decode-once columnar forms — within and across
// engine jobs.
//
// Trace generation (micro-benchmark emulation, workload synthesis, the
// lmbench chases) is deterministic in its parameters, and one job asks
// for the same trace many times over: an `experiments -scenario all` job
// requests 307 traces of which 97 are distinct (Table I, Fig. 2 and both
// validation pipelines each want the raw suite, both pipelines the
// initialized suite and the lmbench chases, Table II and figures 5-8 the
// Table II workloads), and a serve worker re-derives all of them for
// every job of the same shape. In the warm-cache steady state that emulation dominates
// the job, not the simulations (those are cache hits). The memo keys a
// generated trace by its generation parameters (Key, and the Ubench and
// Workload helpers that build keys for every caller) and returns the
// shared *trace.Trace on repeat requests. Because trace.Trace memoizes
// its Digest and its Decoded forms internally, holding the trace holds
// those too: the second request skips generation, hashing *and* decode.
//
// Every job runs over a memo: the engine hands each job its
// Options.TraceMemo — the serve pool's process-lifetime one — or, when
// the caller gave none, a private one that dies with the job.
//
// A memo dies with its process; what it generated need not. Given an
// IdentityStore (WithIdentities: in practice the job's simulation cache,
// and so its snapshot), the memo records each generated trace's identity —
// event count, WarmData flag, content digest — under its key, and on a
// later first request, in this process or another of the same build,
// returns the trace in the deferred state (trace.Deferred): named, counted
// and digested, which is all a simulation-cache lookup or a report needs,
// its generator not run unless something reads events — in practice the
// first simulation-cache miss. A job answered entirely from a snapshot
// therefore generates nothing. Only requests that say what the trace will
// be called (Named, and the Ubench and Workload helpers) can be deferred.
//
// Entries are evicted least-recently-used against a byte budget.
//
// A nil *Memo is valid and memoizes nothing (every Get generates), which
// is what library callers of the generators' consumers get by default.
package tracememo

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// Key spells a memo key: the name of a generator family, then each
// parameter of the generation after a 0 byte. A parameter is a scalar or a
// struct, spelled as fmt's %+v spells it — a number, string or flag as %v
// does, a struct as {Field:value ...}, Open to Close — so a key is the
// string fmt would build, without fmt's reflection on every request. An
// options struct goes in field by field, each under its Go name; the key
// tests fail on a field of the generators' options that does not move its
// key. Keys are never built from program text: the assembler labels of two
// builds of one micro-benchmark differ (ubench's initSeq counter).
type Key struct {
	b     []byte
	first bool // the next scalar is the first field of the struct Open began
}

// NewKey starts the key of a generator family.
func NewKey(family string) Key {
	return Key{b: append(make([]byte, 0, 256), family...)}
}

// put starts a scalar: a parameter of its own when name is "", or else
// the field name of the struct Open began.
func (k Key) put(name string) Key {
	if name == "" {
		k.b = append(k.b, 0)
		return k
	}
	if !k.first {
		k.b = append(k.b, ' ')
	}
	k.first = false
	k.b = append(append(k.b, name...), ':')
	return k
}

// Str, Int, Uint, Float and Bool add a scalar (see put).
func (k Key) Str(name, v string) Key {
	k = k.put(name)
	k.b = append(k.b, v...)
	return k
}
func (k Key) Int(name string, v int64) Key {
	k = k.put(name)
	k.b = strconv.AppendInt(k.b, v, 10)
	return k
}
func (k Key) Uint(name string, v uint64) Key {
	k = k.put(name)
	k.b = strconv.AppendUint(k.b, v, 10)
	return k
}
func (k Key) Float(name string, v float64) Key {
	k = k.put(name)
	k.b = strconv.AppendFloat(k.b, v, 'g', -1, 64)
	return k
}
func (k Key) Bool(name string, v bool) Key {
	k = k.put(name)
	k.b = strconv.AppendBool(k.b, v)
	return k
}

// Open begins a struct parameter; Close ends it.
func (k Key) Open() Key {
	k.b, k.first = append(k.b, 0, '{'), true
	return k
}
func (k Key) Close() Key {
	k.b, k.first = append(k.b, '}'), false
	return k
}

// String returns the key.
func (k Key) String() string { return string(k.b) }

// ubenchKey names b's trace under o: the benchmark is its registered name
// and the instruction count its size derives from, the options go in whole.
func ubenchKey(b ubench.Bench, o ubench.Options) string {
	return NewKey("ubench").Str("", b.Name).Uint("", b.PaperInstructions).
		Open().Float("Scale", o.Scale).Bool("InitArrays", o.InitArrays).Close().
		String()
}

// workloadKey names the trace synthesized from p under o; callers may
// build profiles of their own, so the profile goes in whole as well.
func workloadKey(p workload.Profile, o workload.Options) string {
	return NewKey("workload").Open().
		Str("Name", p.Name).Str("SourceFile", p.SourceFile).Int("Line", int64(p.Line)).
		Uint("PaperInstructions", p.PaperInstructions).Int("WorkingSetKB", int64(p.WorkingSetKB)).
		Float("StreamFrac", p.StreamFrac).Float("ChaseFrac", p.ChaseFrac).
		Float("LoadFrac", p.LoadFrac).Float("StoreFrac", p.StoreFrac).
		Float("BranchRandom", p.BranchRandom).Float("IndirectFrac", p.IndirectFrac).
		Float("CallFrac", p.CallFrac).Int("CodeBlocks", int64(p.CodeBlocks)).
		Float("FPFrac", p.FPFrac).Float("SIMDFrac", p.SIMDFrac).Float("MulFrac", p.MulFrac).
		Float("DivFrac", p.DivFrac).Float("DepProb", p.DepProb).Close().
		Open().Int("Events", int64(o.Events)).Int("Seed", o.Seed).Int("WSDivisor", int64(o.WSDivisor)).Close().
		String()
}

// Ubench returns the trace of micro-benchmark b generated under o. A
// scale of zero or below is ubench.DefaultScale, resolved here, before
// the key is built, so that it is one key with the default's.
func (m *Memo) Ubench(b ubench.Bench, o ubench.Options) (*trace.Trace, error) {
	if o.Scale <= 0 {
		o.Scale = ubench.DefaultScale
	}
	return m.Named(ubenchKey(b, o), b.Name, func() (*trace.Trace, error) { return b.Trace(o) })
}

// Workload returns the trace synthesized from profile p under o.
func (m *Memo) Workload(p workload.Profile, o workload.Options) (*trace.Trace, error) {
	return m.Named(workloadKey(p, o), p.Name, func() (*trace.Trace, error) { return workload.Generate(p, o) })
}

// eventFootprint is the resident bytes one dynamic trace event costs: the
// trace's columns — PC, MemAddr and Target (8 bytes each), the word id (4)
// and the taken bit — rounded up. The decoded variants re-slice those
// columns, so decoding adds no per-event bytes (TestSizeMatchesRetainedHeap
// holds the estimate to the measured heap). Used for budget accounting
// only.
const eventFootprint = 3*8 + 4 + 1

// entryOverhead covers the per-entry bookkeeping (key, map slot, list
// element, decode tables) beyond the event columns.
const entryOverhead = 512

// Size estimates the resident bytes of a memoized trace: a deferred one
// costs its overhead until it materializes.
func Size(t *trace.Trace) int64 {
	return int64(t.Resident())*eventFootprint + entryOverhead
}

// IdentityStore remembers, beyond the life of a memo or its process, what
// each memo key generated. simcache.TraceIdentities is the implementation:
// identities ride the simulation cache's snapshot.
type IdentityStore interface {
	LookupIdentity(key string) (trace.Identity, bool)
	// RecordIdentity remembers tr's identity under key. A store that will
	// not keep it leaves tr undigested.
	RecordIdentity(key string, tr *trace.Trace)
}

type mentry struct {
	key  string
	tr   *trace.Trace
	size int64
	elem *list.Element
}

type flight struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// Stats reports memo effectiveness. Hits and Misses count requests — a
// request that waited for another's generation is a hit — and Generated
// counts generator runs: one per miss, unless the miss was answered from a
// remembered identity, whose generator runs when events are first read, if
// ever.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Generated uint64 `json:"generated"`
	Evicted   uint64 `json:"evicted"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// Memo is a budget-bounded trace memoization table, safe for
// concurrent use. Concurrent Gets of the same key generate once: the
// first claims the key, the rest wait for its result.
type Memo struct {
	mu        sync.Mutex
	budget    int64 // bytes; <= 0 = unbounded
	used      int64
	entries   map[string]*mentry
	lru       *list.List // front = most recently used
	inflight  map[string]*flight
	ids       IdentityStore // nil: nothing outlives the memo
	hits      uint64
	misses    uint64
	generated atomic.Uint64
	evicted   uint64
}

// New returns a memo bounded by budget bytes (<= 0: unbounded). The second
// parameter is unused: kept for its only caller that passes it,
// benchmark/probes.go, which is frozen.
func New(budget int64, _ time.Duration) *Memo {
	return &Memo{
		budget:   budget,
		entries:  map[string]*mentry{},
		lru:      list.New(),
		inflight: map[string]*flight{},
	}
}

// WithIdentities makes m remember what it generates in ids and answer
// first requests from what ids remembers (see the package comment), and
// returns m. Call it before the memo is shared; nil ids, or a nil memo,
// changes nothing.
func (m *Memo) WithIdentities(ids IdentityStore) *Memo {
	if m != nil {
		m.ids = ids
	}
	return m
}

// Get returns the memoized trace for key, generating and storing it on
// first request. A generation error is returned but never stored, so a
// later Get retries. On a nil memo, Get just generates.
func (m *Memo) Get(key string, generate func() (*trace.Trace, error)) (*trace.Trace, error) {
	return m.Named(key, "", generate)
}

// Named is Get for a caller that knows the Name generate will give the
// trace — what lets the memo hand it out before it exists. With a
// non-empty name and an identity store, a first request whose key the
// store remembers returns the deferred trace (a generation error, or
// events that do not match what was remembered, then reach whoever reads
// events first, not this caller), and a first request it does not
// remember generates now and records the identity, digesting the trace.
func (m *Memo) Named(key, name string, generate func() (*trace.Trace, error)) (*trace.Trace, error) {
	if m == nil {
		return generate()
	}
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.hits++
		m.lru.MoveToFront(e.elem)
		tr := e.tr
		m.mu.Unlock()
		return tr, nil
	}
	if fl, ok := m.inflight[key]; ok {
		m.hits++
		m.mu.Unlock()
		<-fl.done
		return fl.tr, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	m.inflight[key] = fl
	m.misses++
	m.mu.Unlock()

	tr, err := m.resolve(key, name, generate)
	fl.tr, fl.err = tr, err

	m.mu.Lock()
	delete(m.inflight, key)
	if err == nil && tr != nil {
		e := &mentry{key: key, tr: tr, size: Size(tr)}
		e.elem = m.lru.PushFront(e)
		m.entries[key] = e
		m.used += e.size
		m.evictLocked()
	}
	m.mu.Unlock()
	close(fl.done)
	return tr, err
}

// resolve answers a miss: from the identity store when it remembers key,
// by generating (and telling the store) otherwise.
func (m *Memo) resolve(key, name string, generate func() (*trace.Trace, error)) (*trace.Trace, error) {
	counted := func() (*trace.Trace, error) {
		m.generated.Add(1)
		return generate()
	}
	if m.ids == nil || name == "" {
		return counted()
	}
	if id, ok := m.ids.LookupIdentity(key); ok {
		var tr *trace.Trace
		tr = trace.Deferred(name, id, func() (*trace.Trace, error) {
			g, err := counted()
			if err == nil {
				m.grew(key, tr, int64(g.Len())*eventFootprint)
			}
			return g, err
		})
		return tr, nil
	}
	tr, err := counted()
	if err == nil && tr != nil {
		m.ids.RecordIdentity(key, tr)
	}
	return tr, err
}

// grew charges key's entry, if it still holds tr, the bytes tr gained by
// materializing, and applies the budget. The entry counts as just used:
// something is simulating it.
func (m *Memo) grew(key string, tr *trace.Trace, by int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok && e.tr == tr {
		e.size += by
		m.used += by
		m.lru.MoveToFront(e.elem)
		m.evictLocked()
	}
}

// evictLocked drops least-recently-used entries until within budget. The
// newest entry is never evicted — a single trace larger than the whole
// budget must still be servable to the job that generated it.
func (m *Memo) evictLocked() {
	if m.budget <= 0 {
		return
	}
	for m.used > m.budget && m.lru.Len() > 1 {
		e := m.lru.Back().Value.(*mentry)
		m.lru.Remove(e.elem)
		delete(m.entries, e.key)
		m.used -= e.size
		m.evicted++
	}
}

// Stats snapshots the memo counters.
func (m *Memo) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Hits:      m.hits,
		Misses:    m.misses,
		Generated: m.generated.Load(),
		Evicted:   m.evicted,
		Entries:   len(m.entries),
		Bytes:     m.used,
	}
}
