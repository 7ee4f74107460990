package simcache

import (
	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// DefaultLanes is the miss-chunk width RunBatch uses when BatchOptions
// leaves Lanes at zero. Wider chunks amortize the column walk over more
// configurations but make each simulated hierarchy compete with more
// neighbours for the host cache; 16 is comfortably past the point where
// the walk's fixed costs stop mattering.
const DefaultLanes = 16

// BatchOptions shapes a batched submission.
type BatchOptions struct {
	// Lanes caps how many cache-missing configurations are replayed per
	// column walk (sim.RunBatch call). 0 means DefaultLanes.
	Lanes int
}

// RunBatch returns the memoized result for every (cfgs[i], tr), replaying
// the cache misses in lane batches: one walk over the trace's decoded
// columns serves up to Lanes missing configurations at once. Results and
// errors align with cfgs.
//
// Per-configuration semantics are exactly Run's: stored entries are
// returned from memory, submissions identical to an in-flight run (from
// this batch or a concurrent worker) wait for it, and fresh work fills the
// cache for everyone else. Lane batching changes only how the misses are
// replayed — a lane's result is identical to a sequential run, so the
// cache never sees batched and sequential entries diverge. If a batch walk
// fails (for example one configuration is invalid), its configurations
// fall back to individual runs so an error poisons only its own slot.
//
// A nil receiver batches the replays without memoizing anything.
func (c *Cache) RunBatch(cfgs []sim.Config, tr *trace.Trace, opt BatchOptions) ([]core.Result, []error) {
	n := len(cfgs)
	out := make([]core.Result, n)
	errs := make([]error, n)
	if n == 0 {
		return out, errs
	}

	if c == nil {
		c.runMisses(allIndices(n), cfgs, tr, opt, out, errs)
		return out, errs
	}

	// Keys are hashed before the lock is taken: at microseconds per
	// fingerprint, a wide batch would otherwise stall every other worker's
	// lookups for the length of its own hashing.
	keys := make([]string, n)
	for i, cfg := range cfgs {
		keys[i] = Key(cfg, tr)
	}

	// Classify every slot under one lock pass: already stored, in flight
	// elsewhere (including earlier duplicates in this very batch), or ours
	// to resolve.
	flights := make([]*inflight, n)
	var own, waits []int
	c.mu.Lock()
	for i := range cfgs {
		if ce, ok := c.entries[keys[i]]; ok {
			c.hits++
			c.touchLocked(ce)
			out[i] = ce.res
			continue
		}
		if fl, ok := c.running[keys[i]]; ok {
			c.shared++
			flights[i] = fl
			waits = append(waits, i)
			continue
		}
		fl := &inflight{done: make(chan struct{})}
		c.running[keys[i]] = fl
		flights[i] = fl
		own = append(own, i)
	}
	disk, remote := c.disk, c.remote
	c.mu.Unlock()

	// Resolve owned slots through the cheaper tiers before burning lanes
	// on them: the disk tier decodes one record per hit, the remote tier
	// costs a round-trip. Only what every tier misses is simulated.
	by := make([]resolution, n)
	var toSim []int
	for _, i := range own {
		if disk.Has(keys[i]) {
			if res, err := disk.Get(keys[i]); err == nil {
				out[i], by[i] = res, byDisk
				continue
			}
			c.countRejected()
		}
		if remote != nil {
			if res, ok := remote.Lookup(keys[i]); ok {
				out[i], by[i] = res, byRemote
				continue
			}
		}
		toSim = append(toSim, i)
	}

	c.runMisses(toSim, cfgs, tr, opt, out, errs)

	c.mu.Lock()
	for _, i := range own {
		flights[i].res, flights[i].err = out[i], errs[i]
		c.settleLocked(keys[i], out[i], errs[i], by[i])
		delete(c.running, keys[i])
	}
	c.mu.Unlock()
	for _, i := range own {
		close(flights[i].done)
	}
	if remote != nil {
		for _, i := range toSim {
			if errs[i] == nil {
				remote.Offer(keys[i], out[i])
			}
		}
	}

	// Waiting last cannot deadlock on duplicates within this batch: their
	// owning slots were simulated and closed above.
	for _, i := range waits {
		fl := flights[i]
		<-fl.done
		out[i], errs[i] = fl.res, fl.err
	}
	return out, errs
}

// runMisses replays the configurations at idxs in lane batches, writing
// into out/errs. Misses are grouped by decoder variant first (a decoded
// trace serves one variant) and then chunked to the lane width.
func (c *Cache) runMisses(idxs []int, cfgs []sim.Config, tr *trace.Trace, opt BatchOptions, out []core.Result, errs []error) {
	if len(idxs) == 0 {
		return
	}
	lanes := opt.Lanes
	if lanes <= 0 {
		lanes = DefaultLanes
	}
	var variants [2][]int
	for _, i := range idxs {
		v := 0
		if cfgs[i].DecoderDepBug {
			v = 1
		}
		variants[v] = append(variants[v], i)
	}
	for _, group := range variants {
		for s := 0; s < len(group); s += lanes {
			chunk := group[s:min(s+lanes, len(group))]
			batch := make([]sim.Config, len(chunk))
			for j, i := range chunk {
				batch[j] = cfgs[i]
			}
			rs, err := sim.RunBatchTrace(batch, tr)
			if err != nil {
				for _, i := range chunk {
					out[i], errs[i] = cfgs[i].Run(tr)
				}
				continue
			}
			for j, i := range chunk {
				out[i] = rs[j]
			}
		}
	}
}

func allIndices(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}
