package cluster

import (
	"time"

	"racesim/internal/engine"
)

// FastPolicy returns opts under a failure policy with the given breaker
// bounds and every wait — and the checkpoint interval — a hundredth of a
// real sweep's, so failure-path tests run in milliseconds and a sweep with a
// cache file saves about every 100 ms.
func FastPolicy(opts Options, deadAfter, probeLimit int) Options {
	opts.policy = &policy{
		deadAfter:  deadAfter,
		probeLimit: probeLimit,
		delay:      func(attempt int) time.Duration { return engine.Backoff(attempt) / 100 },
		checkpoint: sweepPolicy.checkpoint / 100,
	}
	return opts
}
