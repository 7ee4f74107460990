// Package dram models main memory as a fixed-latency, bandwidth-limited
// device with a single request queue, the terminal level of the cache
// hierarchy.
package dram

import "fmt"

// Config configures the memory model.
type Config struct {
	// LatencyCycles is the idle-system load-to-use latency, in core cycles.
	LatencyCycles int
	// BurstCycles is the channel occupancy per line transfer; back-to-back
	// requests closer together than this queue behind each other.
	BurstCycles int
	// QueueDepth bounds how far the queue may run ahead of the current
	// cycle; beyond it, extra requests stall for a full burst each.
	QueueDepth int
}

// DefaultConfig returns a plausible LPDDR-class memory.
func DefaultConfig() Config {
	return Config{LatencyCycles: 180, BurstCycles: 6, QueueDepth: 16}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LatencyCycles <= 0 {
		return fmt.Errorf("dram: LatencyCycles = %d", c.LatencyCycles)
	}
	if c.BurstCycles <= 0 {
		return fmt.Errorf("dram: BurstCycles = %d", c.BurstCycles)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("dram: QueueDepth = %d", c.QueueDepth)
	}
	return nil
}

// Stats counts memory traffic.
type Stats struct {
	Reads       uint64
	Writes      uint64
	QueuedTotal uint64 // cumulative queueing delay in cycles
}

// DRAM is the memory device. It is not safe for concurrent use; each
// simulated core owns its own hierarchy.
type DRAM struct {
	cfg       Config
	busyUntil uint64
	stats     Stats
}

// New builds a DRAM model; cfg must be valid.
func New(cfg Config) (*DRAM, error) {
	d := new(DRAM)
	if err := d.Reset(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset returns d to the idle, zero-traffic state of a new model of cfg.
func (d *DRAM) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*d = DRAM{cfg: cfg}
	return nil
}

// Access services one line request issued at cycle now and returns its
// total latency including queueing.
func (d *DRAM) Access(now uint64, write bool) uint64 {
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	// Bound the queue: if it is QueueDepth bursts ahead, collapse back.
	maxAhead := uint64(d.cfg.QueueDepth * d.cfg.BurstCycles)
	if start > now+maxAhead {
		start = now + maxAhead
	}
	d.busyUntil = start + uint64(d.cfg.BurstCycles)
	queued := start - now
	d.stats.QueuedTotal += queued
	return queued + uint64(d.cfg.LatencyCycles)
}

// Stats returns accumulated counters.
func (d *DRAM) Stats() Stats { return d.stats }
