// Package sim is the simulator façade over core.Config, the one flat
// configuration of both core types (in-order Cortex-A53 class and
// out-of-order Cortex-A72 class): running it, cache-key fingerprints, JSON
// (de)serialization for config files, best-guess public presets
// corresponding to steps 1–3 of the paper's methodology, and the space of
// undisclosed parameters handed to the tuner (step 4).
package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"racesim/internal/core"
	"racesim/internal/trace"
)

// Config fully describes a simulated core and its memory subsystem: it is
// core.Config, with the methods that run, fingerprint and save it.
type Config core.Config

// Run replays a trace through the decode-once path: the trace's static
// decode is computed at most once per decoder variant (memoized on tr, see
// trace.Decoded) and shared immutably by every configuration — tuner
// candidates, validation stages, perturbation sweeps — that replays the
// same trace. Traces that declare WarmData (the program initialized its
// memory before the region, as SPEC workloads do) disable the zero-fill
// page optimization for the run: that hardware behaviour only exists for
// never-written pages.
func (c Config) Run(tr *trace.Trace) (core.Result, error) {
	return c.RunDecoded(tr.Decoded(c.DecoderDepBug))
}

// RunDecoded replays a pre-decoded trace. The decoded variant must match
// the configuration's DecoderDepBug setting (Run picks the right one
// automatically). It is a RunBatch of one, so every replay shares one hot
// path (the step kernel) and one memoized behavior table per decode.
func (c Config) RunDecoded(d *trace.Decoded) (core.Result, error) {
	rs, err := RunBatch([]Config{c}, d)
	if err != nil {
		return core.Result{}, err
	}
	return rs[0], nil
}

// Fingerprint returns a stable hex digest of the configuration's canonical
// form (Canonical): configurations that differ only in Name, or only in
// tunables no model reads under the kinds they select, share a fingerprint.
// It is the config half of the simulation-cache key (see internal/simcache),
// the hex form of FingerprintSum; the string is its one allocation.
func (c Config) Fingerprint() string {
	sum := c.FingerprintSum()
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// FingerprintSum is the digest Fingerprint spells: SHA-256 over the model
// epoch (core.Epoch), then the canonical configuration's leaves as the
// compiled plan encodes them (appendLeaves). It allocates nothing.
func (c Config) FingerprintSum() [sha256.Size]byte {
	canon := Canonical(c)
	var buf [1024]byte // a Config encodes to a few hundred bytes
	b := binary.AppendUvarint(buf[:0], core.Epoch)
	return sha256.Sum256(appendLeaves(b, &canon))
}

// MarshalFile returns the bytes of a config file holding the
// configuration — indented JSON and a closing newline — which LoadConfig
// reads back. It is the one encoder of a config file: MarshalJSONFile
// writes its bytes, and the validate job returns them as the tuned
// configuration.
func (c Config) MarshalFile() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// MarshalJSONFile writes the configuration to path as a config file
// (MarshalFile).
func (c Config) MarshalJSONFile(path string) error {
	data, err := c.MarshalFile()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadConfig reads a configuration from a JSON file and validates it.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("sim: %s: %w", path, err)
	}
	if err := core.Config(c).Validate(); err != nil {
		return Config{}, fmt.Errorf("sim: %s: %w", path, err)
	}
	return c, nil
}
