package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// Tolerance declares the accuracy bounds one sample group must meet.
// Zero values mean "unconstrained", so a budget file only states the
// bounds it cares about.
type Tolerance struct {
	// MinCorrelation is the minimum Pearson r between sim and hardware
	// CPI (e.g. 0.99).
	MinCorrelation float64 `json:"min_correlation,omitempty"`
	// MaxMAPE bounds the mean absolute percentage error, as a fraction.
	MaxMAPE float64 `json:"max_mape,omitempty"`
	// MaxAbsMeanError bounds the absolute mean signed error (model bias).
	MaxAbsMeanError float64 `json:"max_abs_mean_error,omitempty"`
	// MaxRMSE bounds the root-mean-square CPI error, in CPI units.
	MaxRMSE float64 `json:"max_rmse,omitempty"`
	// MaxBenchError bounds the worst single benchmark's absolute error.
	MaxBenchError float64 `json:"max_bench_error,omitempty"`
}

// Check returns one violation line per bound the metrics break.
func (t Tolerance) Check(m Metrics) []string {
	var v []string
	if t.MinCorrelation > 0 && m.Correlation < t.MinCorrelation {
		v = append(v, fmt.Sprintf("correlation %.4f < budget %.4f", m.Correlation, t.MinCorrelation))
	}
	if t.MaxMAPE > 0 && m.MAPE > t.MaxMAPE {
		v = append(v, fmt.Sprintf("MAPE %.1f%% > budget %.1f%%", m.MAPE*100, t.MaxMAPE*100))
	}
	if t.MaxAbsMeanError > 0 && math.Abs(m.MeanError) > t.MaxAbsMeanError {
		v = append(v, fmt.Sprintf("|mean error| %.1f%% > budget %.1f%%", math.Abs(m.MeanError)*100, t.MaxAbsMeanError*100))
	}
	if t.MaxRMSE > 0 && m.RMSE > t.MaxRMSE {
		v = append(v, fmt.Sprintf("RMSE %.4f CPI > budget %.4f CPI", m.RMSE, t.MaxRMSE))
	}
	if t.MaxBenchError > 0 && m.MaxAbsError > t.MaxBenchError {
		v = append(v, fmt.Sprintf("worst bench %s error %.1f%% > budget %.1f%%", m.WorstBench, m.MaxAbsError*100, t.MaxBenchError*100))
	}
	return v
}

// BoardBudget declares the tolerances for one board: suite-wide bounds
// plus optional per-category overrides.
type BoardBudget struct {
	Suite      Tolerance            `json:"suite"`
	Categories map[string]Tolerance `json:"categories,omitempty"`
}

// Budget is the accuracy-budget file: tolerances per board name. Boards
// absent from the budget pass unconditionally (their report still
// carries every metric).
type Budget struct {
	Boards map[string]BoardBudget `json:"boards"`
}

// ParseBudget decodes a budget from JSON, rejecting unknown fields so a
// typoed bound fails the gate loudly instead of silently not gating.
func ParseBudget(data []byte) (Budget, error) {
	var b Budget
	if err := unmarshalStrict(data, &b); err != nil {
		return Budget{}, fmt.Errorf("report: budget: %w", err)
	}
	return b, nil
}

func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
