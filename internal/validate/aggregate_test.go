package validate

import (
	"math"
	"strings"
	"testing"

	"racesim/internal/ubench"
)

func TestAggregatesEmptySlice(t *testing.T) {
	mean, err := MeanError(nil)
	if err != nil || mean != 0 {
		t.Errorf("MeanError(nil) = %v, %v; want 0, nil", mean, err)
	}
	if _, ok, err := MaxError(nil); ok || err != nil {
		t.Errorf("MaxError(nil) ok=%v err=%v; want false, nil", ok, err)
	}
	if cats := CategoryErrors(nil); len(cats) != 0 {
		t.Errorf("CategoryErrors(nil) = %v, want empty", cats)
	}
}

func TestAggregatesSingleBenchCategories(t *testing.T) {
	es := []BenchError{
		{Name: "MD", Category: ubench.CatMemory, Error: 0.30},
		{Name: "CCh", Category: ubench.CatControl, Error: 0.10},
		{Name: "EI", Category: ubench.CatExecution, Error: 0.20},
	}
	cats := CategoryErrors(es)
	if len(cats) != 3 {
		t.Fatalf("%d categories, want 3", len(cats))
	}
	// One bench per category: the category mean IS the bench error.
	for _, e := range es {
		if cats[e.Category] != e.Error {
			t.Errorf("%s mean %v, want %v", e.Category, cats[e.Category], e.Error)
		}
	}
}

func TestAggregatesSurfaceNonFinite(t *testing.T) {
	for name, bad := range map[string]float64{
		"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1),
	} {
		es := []BenchError{
			{Name: "MD", Category: ubench.CatMemory, Error: 0.1},
			{Name: "SB", Category: ubench.CatStore, Error: bad},
		}
		if _, err := MeanError(es); err == nil || !strings.Contains(err.Error(), "SB") {
			t.Errorf("%s: MeanError err = %v, want error naming SB", name, err)
		}
		if _, _, err := MaxError(es); err == nil || !strings.Contains(err.Error(), "SB") {
			t.Errorf("%s: MaxError err = %v, want error naming SB", name, err)
		}
	}
}

func TestAggregatesNaNFreeOnFiniteInput(t *testing.T) {
	es := []BenchError{
		{Name: "a", Category: ubench.CatMemory, Error: 0},
		{Name: "b", Category: ubench.CatMemory, Error: 0.5},
	}
	mean, err := MeanError(es)
	if err != nil || math.IsNaN(mean) {
		t.Errorf("MeanError = %v, %v", mean, err)
	}
	worst, ok, err := MaxError(es)
	if err != nil || !ok || worst.Name != "b" {
		t.Errorf("MaxError = %+v, %v, %v", worst, ok, err)
	}
	for c, v := range CategoryErrors(es) {
		if math.IsNaN(v) {
			t.Errorf("category %s mean is NaN", c)
		}
	}
}
