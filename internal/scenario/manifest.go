package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// manifestFormat is bumped whenever the Spec schema changes incompatibly;
// mismatched manifests are rejected with an error (unlike the simulation
// cache, a manifest is authored intent, so silently ignoring it would be
// wrong).
const manifestFormat = 1

// Manifest is the on-disk scenario set.
type Manifest struct {
	Format    int    `json:"format"`
	Scenarios []Spec `json:"scenarios"`
}

// LoadManifest reads and validates a scenario manifest.
func LoadManifest(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	specs, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: manifest %s: %w", path, err)
	}
	return specs, nil
}

// parseManifest decodes and validates the bytes of a manifest. A field
// the schema does not have (misspelled, or removed from it) is an error
// that names it, not silently ignored.
func parseManifest(data []byte) ([]Spec, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("data after the manifest")
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("format %d, want %d", m.Format, manifestFormat)
	}
	if err := checkUnique(m.Scenarios); err != nil {
		return nil, err
	}
	for _, s := range m.Scenarios {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return m.Scenarios, nil
}

// SaveManifest writes the specs as a manifest, atomically (temp file in
// the same directory, then rename). Saving the built-in Registry gives a
// starting point for hand-edited sweeps.
func SaveManifest(path string, specs []Spec) error {
	if err := checkUnique(specs); err != nil {
		return err
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(Manifest{Format: manifestFormat, Scenarios: specs}, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
