// Package trace implements the racesim instruction trace format (RIFT),
// a stand-in for Sniper's SIFT: a compact binary stream of dynamic
// instruction events recorded once by the front-end (the functional
// emulator) and replayed many times by the timing back-end.
//
// Each event carries the raw instruction word rather than decoded
// operands: the back-end decodes words itself (through isa.Decoder), so
// decoder behaviour — including the reproduced dependency-extraction bug
// — affects timing exactly as it did in the paper's Capstone-based
// front-end.
//
// A Trace stores its events once, as columns: PC, MemAddr and Target, a
// per-event id into the table of the distinct words (in order of first
// appearance) and a bitset of taken flags, about 28 bytes per event. The
// producers (Record, workload synthesis, ReadFrom) append through a
// Builder. Decoded, the decode-once form replay walks, decodes only the
// distinct words under one decoder variant and re-slices the trace's
// columns, so both variants share one copy of the events.
//
// A Trace also carries two pieces of replay-relevant identity. WarmData
// marks traces whose program initialized memory before the captured
// region (as SPEC workloads do), which disables the hardware's zero-fill
// page optimization for the run. Digest is a memoized content hash over
// every event plus the WarmData flag; together with a configuration
// fingerprint it keys the simulation cache (internal/simcache), so
// identical replays are recognized no matter how the trace was produced
// or what it was named.
//
// Name, length, WarmData and Digest are also all that a replay answered
// from the cache ever asks of a trace. A Trace can therefore exist in a
// deferred state (Deferred) that carries exactly that Identity, remembered
// from an earlier generation, and generates its events only when a reader
// needs them — a cache miss — checking that they are the remembered ones.
package trace
