package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseManifest: the manifest parser never panics, and a manifest it
// accepts expands without error into units with distinct IDs — what
// FilterUnits and a distributed sweep address them by — and round-trips
// through SaveManifest to equal specs. The seed corpus under
// testdata/fuzz/FuzzParseManifest holds the registry as SaveManifest writes
// it (registry) and as it was written while paper kinds had a core
// (registry-with-core), a wrong format, duplicate names, fields the schema
// does not have and one invalid value per case of Spec.Validate.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := parseManifest(data)
		if err != nil {
			return
		}
		units, err := Expand(specs)
		if err != nil {
			t.Fatalf("accepted manifest does not expand: %v", err)
		}
		ids := map[string]bool{}
		for _, u := range units {
			if ids[u.ID] {
				t.Fatalf("accepted manifest expands to unit %s twice", u.ID)
			}
			ids[u.ID] = true
		}
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := SaveManifest(path, specs); err != nil {
			t.Fatalf("accepted manifest does not save: %v", err)
		}
		again, err := LoadManifest(path)
		if err != nil {
			t.Fatalf("saved manifest does not load: %v", err)
		}
		if !reflect.DeepEqual(withoutEmptyLists(again), withoutEmptyLists(specs)) {
			t.Fatalf("round trip changed specs:\n%+v\nvs\n%+v", again, specs)
		}
	})
}

// withoutEmptyLists returns specs with empty Budgets and NoiseLevels nil,
// which is how SaveManifest writes them (omitempty).
func withoutEmptyLists(specs []Spec) []Spec {
	out := append([]Spec(nil), specs...)
	for i := range out {
		if len(out[i].Budgets) == 0 {
			out[i].Budgets = nil
		}
		if len(out[i].NoiseLevels) == 0 {
			out[i].NoiseLevels = nil
		}
	}
	return out
}

// TestManifestRejectsUnknownFields: a field the schema does not have is an
// error that names it, whether it was removed from the schema or
// misspelled, and so is anything after the manifest.
func TestManifestRejectsUnknownFields(t *testing.T) {
	for field, data := range map[string]string{
		"budget":    `{"format": 1, "scenarios": [{"name": "n", "kind": "study", "cores": ["a53"], "budget": 600}]}`,
		"core":      `{"format": 1, "scenarios": [{"name": "fig6", "kind": "fig6", "core": "a72"}]}`,
		"tune_core": `{"format": 1, "scenarios": [{"name": "x", "kind": "study", "tune_core": "a53", "cores": ["a53"]}]}`,
		"budgest":   `{"format": 1, "scenarios": [{"name": "b", "kind": "study", "cores": ["a53"], "budgest": [300]}]}`,
		"formt":     `{"formt": 1, "format": 1, "scenarios": []}`,
	} {
		if _, err := parseManifest([]byte(data)); err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("manifest with %s: error %v, want one naming the field", field, err)
		}
	}
	valid := `{"format": 1, "scenarios": [{"name": "b", "kind": "study", "cores": ["a53"], "budgets": [300]}]}`
	if _, err := parseManifest([]byte(valid)); err != nil {
		t.Fatal(err)
	}
	if _, err := parseManifest([]byte(valid + ` {"format": 1}`)); err == nil {
		t.Error("data after the manifest accepted")
	}
}
