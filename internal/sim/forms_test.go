package sim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/sim"
)

// TestConfigFormsGolden pins the two external forms of a configuration:
// its Fingerprint, the config half of every simulation-cache key, and the
// config file MarshalJSONFile writes. testdata/config_forms.golden holds
// both for the public presets and the boards' true configurations, so a
// change to either form — a renamed, retyped, reordered or retagged field —
// fails here instead of silently missing every cached result or breaking
// saved config files. LoadConfig of each written file must give the same
// fingerprint back. Run with -update to re-pin on purpose.
func TestConfigFormsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, cfg := range []sim.Config{sim.PublicA53(), sim.PublicA72(), hw.TrueA53(), hw.TrueA72()} {
		path := filepath.Join(t.TempDir(), cfg.Name+".json")
		if err := cfg.MarshalJSONFile(path); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := sim.LoadConfig(path)
		if err != nil {
			t.Fatal(err)
		}
		fp := cfg.Fingerprint()
		if lfp := loaded.Fingerprint(); lfp != fp {
			t.Errorf("%s: LoadConfig of the written file fingerprints %s, want %s", cfg.Name, lfp, fp)
		}
		fmt.Fprintf(&got, "== %s fingerprint %s\n%s", cfg.Name, fp, file)
	}

	const golden = "testdata/config_forms.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range max(len(gl), len(wl)) {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("a configuration's fingerprint or file moved (%s, first at line %d):\n got  %s\n want %s\n"+
					"every cache key or config file written before the change no longer matches; re-pin on purpose with -update",
					golden, i+1, g, w)
			}
		}
	}
}
