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
}
