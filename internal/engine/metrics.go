package engine

import (
	"net/http"

	"racesim/internal/core"
	"racesim/internal/simcache"
	"racesim/internal/telemetry"
	"racesim/internal/version"
)

// registerMetrics installs the server's built-in instruments. Hot-path
// state (cache, trace memo, queue) is exported through collectors that
// read the existing Stats() snapshots at scrape time — observation
// never adds work to the simulation path, which is what keeps job
// output byte-identical to an uninstrumented run. Per-job counters and
// latency histograms are created lazily by the worker loop (get-or-
// create by kind/status).
func (s *Server) registerMetrics() {
	r := s.metrics
	info := s.build
	r.GaugeFunc("racesim_build_info",
		"Build identity as constant labels; the value is always 1.",
		func() float64 { return 1 },
		telemetry.L("version", info.Version),
		telemetry.L("goversion", info.GoVersion),
		telemetry.L("commit", info.Commit))
	r.GaugeFunc("racesim_job_queue_depth",
		"Jobs queued but not yet running.",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("racesim_workers",
		"Size of the job worker pool.",
		func() float64 { return float64(s.opts.Workers) })
	r.GaugeFunc("racesim_sse_streams",
		"Open /v1/jobs/{id}/events streams.",
		func() float64 { return float64(s.sseStreams.Load()) })

	cache := func(name, help string, read func() float64) {
		r.CounterFunc("racesim_cache_"+name, help, read)
	}
	cache("hits_total", "Cache lookups answered from memory or the disk tier.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	cache("misses_total", "Cache lookups neither tier answered: simulated, or answered by the simulation of their trace-read alias class.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	cache("aliased_total", "Cache misses answered by the simulation of their trace-read alias class instead of simulating.",
		func() float64 { return float64(s.cache.Stats().Aliased) })
	cache("shared_total", "Cache lookups that waited on an identical in-flight run.",
		func() float64 { return float64(s.cache.Stats().Shared) })
	cache("rejected_total", "Persisted cache entries dropped by checksum mismatch.",
		func() float64 { return float64(s.cache.Stats().Rejected) })
	cache("evicted_total", "Cache entries dropped by the memory budget.",
		func() float64 { return float64(s.cache.Stats().Evicted) })
	// The work the misses did, as the work: line of a job counts it, by
	// core kind: simulations run and trace events they stepped.
	for _, k := range []struct {
		kind         core.Kind
		sims, events func(simcache.Stats) uint64
	}{
		{core.InOrder, func(st simcache.Stats) uint64 { return st.InOrderSims }, func(st simcache.Stats) uint64 { return st.InOrderEvents }},
		{core.OutOfOrder, func(st simcache.Stats) uint64 { return st.OoOSims }, func(st simcache.Stats) uint64 { return st.OoOEvents }},
	} {
		r.CounterFunc("racesim_sim_simulations_total", "Simulations run on cache misses, by core kind.",
			func() float64 { return float64(k.sims(s.cache.Stats())) }, telemetry.L("kind", string(k.kind)))
		r.CounterFunc("racesim_sim_events_total", "Trace events the simulations on cache misses stepped, by core kind.",
			func() float64 { return float64(k.events(s.cache.Stats())) }, telemetry.L("kind", string(k.kind)))
	}
	// The memory tier holds what this process simulated or imported; a hit
	// on the disk tier is answered from the snapshot and adds nothing to it.
	const entriesHelp = "Distinct servable cache results, by tier (memory: simulated or imported here; disk: records of the attached snapshot)."
	r.GaugeFunc("racesim_cache_entries", entriesHelp,
		func() float64 { return float64(s.cache.Stats().Entries) },
		telemetry.L("tier", "total"))
	r.GaugeFunc("racesim_cache_entries", entriesHelp,
		func() float64 { return float64(s.cache.Stats().MemEntries) },
		telemetry.L("tier", "memory"))
	r.GaugeFunc("racesim_cache_entries", entriesHelp,
		func() float64 { return float64(s.cache.Stats().DiskEntries) },
		telemetry.L("tier", "disk"))

	r.CounterFunc("racesim_tracememo_hits_total",
		"Trace-memo lookups answered without re-emulation.",
		func() float64 { return float64(s.memo.Stats().Hits) })
	r.CounterFunc("racesim_tracememo_misses_total",
		"Trace-memo lookups that generated and decoded.",
		func() float64 { return float64(s.memo.Stats().Misses) })
	r.CounterFunc("racesim_tracememo_evicted_total",
		"Trace-memo entries dropped by the byte budget.",
		func() float64 { return float64(s.memo.Stats().Evicted) })
	r.GaugeFunc("racesim_tracememo_entries",
		"Memoized traces currently held.",
		func() float64 { return float64(s.memo.Stats().Entries) })
	r.GaugeFunc("racesim_tracememo_bytes",
		"Bytes held by the trace memo (occupancy against its budget).",
		func() float64 { return float64(s.memo.Stats().Bytes) })
}

// jobCounters moves the per-job metrics after one job finished: the
// terminal counter plus the wait (queued → running) and run (running →
// terminal) latency histograms, labeled by job kind.
func (s *Server) jobCounters(kind, status string, wait, run float64) {
	s.metrics.Counter("racesim_jobs_total",
		"Jobs finished, by kind and terminal status.",
		telemetry.L("kind", kind), telemetry.L("status", status)).Inc()
	s.metrics.Histogram("racesim_job_wait_seconds",
		"Time jobs spent queued before a worker picked them up.",
		telemetry.DurationBuckets, telemetry.L("kind", kind)).Observe(wait)
	s.metrics.Histogram("racesim_job_run_seconds",
		"Time jobs spent executing.",
		telemetry.DurationBuckets, telemetry.L("kind", kind)).Observe(run)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// buildInfo is read once at server construction so every scrape and
// health response reports the same identity.
var buildInfo = version.Get()
