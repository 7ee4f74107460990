// Package cache implements the set-associative cache levels and the
// multi-level hierarchy of the racesim memory subsystem: configurable index
// hashing (mask, XOR-fold, Mersenne-prime modulo), replacement policies,
// victim caching, serial/parallel tag-data access, port bandwidth, MSHRs,
// data prefetching, TLBs, and the zero-fill page optimization that the
// paper observed on real hardware for uninitialized arrays.
package cache

import (
	"fmt"

	"racesim/internal/prefetch"
)

// HashKind selects the set index function.
type HashKind string

// Index hash kinds (cf. Kharbutli et al. on prime-modulo indexing).
const (
	HashMask     HashKind = "mask"     // low bits of the block address
	HashXor      HashKind = "xor"      // XOR-folded block address
	HashMersenne HashKind = "mersenne" // block mod (2^k - 1)
)

// HashKinds lists all index hash kinds. It is also the tuner's list of
// values for each level's hash (internal/sim/space.go), in sampling order:
// reordering it re-pins every tuning race.
var HashKinds = []HashKind{HashMask, HashXor, HashMersenne}

// ReplKind selects the replacement policy.
type ReplKind string

// Replacement policies.
const (
	ReplLRU    ReplKind = "lru"
	ReplPLRU   ReplKind = "plru" // tree pseudo-LRU
	ReplRandom ReplKind = "random"
)

// ReplKinds lists all replacement policies. It is also the tuner's list of
// values for each level's repl (internal/sim/space.go), in sampling order:
// reordering it re-pins every tuning race.
var ReplKinds = []ReplKind{ReplLRU, ReplPLRU, ReplRandom}

// Config describes one cache level.
type Config struct {
	Name     string
	SizeKB   int
	Assoc    int
	LineSize int

	// HitLatency is the load-to-use latency of a hit, in cycles.
	HitLatency int
	// TagDataSerial adds one cycle to every hit (tags probed before data,
	// the low-power option on little cores).
	TagDataSerial bool

	Hash HashKind
	Repl ReplKind

	// MSHRs bounds the number of overlapping outstanding misses the level
	// supports; the out-of-order core uses it to cap memory-level
	// parallelism.
	MSHRs int
	// Ports is the number of accesses accepted per cycle.
	Ports int

	// WriteBack selects write-back (true) or write-through (false).
	WriteBack bool
	// WriteAllocate allocates lines on store misses.
	WriteAllocate bool

	// VictimEntries adds a small fully-associative victim buffer (0 = off).
	VictimEntries int

	Prefetch prefetch.Config
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeKB <= 0 {
		return fmt.Errorf("cache %s: SizeKB = %d", c.Name, c.SizeKB)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: LineSize %d must be a power of two", c.Name, c.LineSize)
	}
	lines := c.SizeKB * 1024 / c.LineSize
	if c.Assoc <= 0 || lines%c.Assoc != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by assoc %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets must be a power of two", c.Name, sets)
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("cache %s: HitLatency = %d", c.Name, c.HitLatency)
	}
	switch c.Hash {
	case HashMask, HashXor, HashMersenne:
	default:
		return fmt.Errorf("cache %s: unknown hash %q", c.Name, c.Hash)
	}
	switch c.Repl {
	case ReplLRU, ReplRandom:
	case ReplPLRU:
		if c.Assoc&(c.Assoc-1) != 0 {
			return fmt.Errorf("cache %s: PLRU needs power-of-two assoc, got %d", c.Name, c.Assoc)
		}
	default:
		return fmt.Errorf("cache %s: unknown replacement %q", c.Name, c.Repl)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: MSHRs = %d", c.Name, c.MSHRs)
	}
	if c.Ports <= 0 {
		return fmt.Errorf("cache %s: Ports = %d", c.Name, c.Ports)
	}
	if c.VictimEntries < 0 {
		return fmt.Errorf("cache %s: VictimEntries = %d", c.Name, c.VictimEntries)
	}
	if err := c.Prefetch.Validate(); err != nil {
		return fmt.Errorf("cache %s: %w", c.Name, err)
	}
	return nil
}

// HitCycles is the latency of a hit: HitLatency plus the TagDataSerial
// extra cycle.
func (c Config) HitCycles() uint64 {
	if c.TagDataSerial {
		return uint64(c.HitLatency) + 1
	}
	return uint64(c.HitLatency)
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeKB * 1024 / c.LineSize / c.Assoc }
