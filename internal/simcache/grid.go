package simcache

import (
	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// pendingPair is a pair of a RunBatch grid that the hit pass left to
// resolve: its index in the grid's output and, unless its trace's digest
// is not a key's half, its key and the key's index hash.
type pendingPair struct {
	pair  int
	keyed bool
	key   [keySize]byte
	hash  uint64
}

// answerHits is RunBatch's hit pass, run on the caller's goroutine. It
// builds each pair's key without its string — the configuration's
// fingerprint sum once per configuration, beside the raw digest each trace
// holds (trace.Trace.DigestSum) — and every pair a tier answers (lookup)
// is decoded straight into its slot of out and counted a hit, as RunKeyed
// would answer it. It returns the other pairs in caller order (misses,
// records that fail, pairs in flight elsewhere) with their keys. A nil
// receiver answers nothing.
func (c *Cache) answerHits(cfgs []sim.Config, trs []*trace.Trace, out []core.Result) (pending []pendingPair) {
	if c == nil {
		pending = make([]pendingPair, len(out))
		for k := range pending {
			pending[k].pair = k
		}
		return pending
	}
	var p pendingPair
	hits := uint64(0)
	for i := range cfgs {
		sum := cfgs[i].FingerprintSum()
		copy(p.key[:32], sum[:])
		for j, tr := range trs {
			p.pair = i*len(trs) + j
			var digest [32]byte
			if digest, p.keyed = tr.DigestSum(); p.keyed {
				copy(p.key[32:], digest[:])
				p.hash = keyHash(&p.key)
				if found, _ := c.lookup(&p.key, p.hash, &out[p.pair]); found {
					hits++
					continue
				}
			}
			pending = append(pending, p)
		}
	}
	if hits > 0 {
		c.mu.Lock()
		c.hits += hits
		c.mu.Unlock()
	}
	return pending
}
