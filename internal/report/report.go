// Package report turns raw validation data (per-benchmark simulated vs
// measured CPI) into a typed, deterministic ValidationReport artifact:
// per board and per benchmark suite/category, Pearson correlation, RMSE,
// MAPE, the mean signed error with a Student-t confidence interval, a
// paired-test p-value against the hardware, and pass/fail against
// tolerances declared per board in an accuracy budget (see budget.go).
//
// The report is the continuously-enforced replacement for the historical
// ad-hoc per-category error lines: every `racesim validate` renders it,
// a validate job's result carries it (`result.report`), and CI gates on
// it so accuracy cannot drift silently across refactors. Every number in
// a report is guaranteed finite — undefined statistics (a single-sample
// correlation, a zero-variance p-value) degrade to documented neutral
// values instead of NaN, so the JSON form always marshals and diffs
// cleanly.
package report

import (
	"fmt"
	"math"
	"sort"

	"racesim/internal/stats"
)

// Version is the report schema version, bumped on incompatible changes.
const Version = 1

// Sample is one benchmark observation: the model's CPI next to the
// board's, the raw datum behind every report statistic.
type Sample struct {
	Bench    string  `json:"bench"`
	Category string  `json:"category"`
	SimCPI   float64 `json:"sim_cpi"`
	HWCPI    float64 `json:"hw_cpi"`
}

// Error returns the sample's signed relative CPI error ((sim-hw)/hw).
func (s Sample) Error() float64 { return (s.SimCPI - s.HWCPI) / s.HWCPI }

// Metrics are the accuracy statistics of one sample group.
//
// Degenerate groups keep every field finite: Correlation is 0 when fewer
// than two samples (or zero variance) make Pearson's r undefined, the
// confidence interval collapses to the mean for n < 2, and PValue is 1
// when the paired test cannot reject anything.
type Metrics struct {
	N int `json:"n"`
	// Correlation is Pearson's r between simulated and measured CPI.
	Correlation float64 `json:"correlation"`
	// RMSE is the root-mean-square CPI error (absolute, in CPI units).
	RMSE float64 `json:"rmse"`
	// MAPE is the mean absolute percentage CPI error, as a fraction
	// (0.031 = 3.1%) — the same metric validate.MeanError reports.
	MAPE float64 `json:"mape"`
	// MeanError is the mean signed relative error (the model's bias);
	// CILo/CIHi bound it with a 95% Student-t confidence interval.
	MeanError float64 `json:"mean_error"`
	CILo      float64 `json:"ci_lo"`
	CIHi      float64 `json:"ci_hi"`
	// PValue is the two-sided paired t-test p-value of sim vs hardware
	// CPI: small values mean the model differs systematically from the
	// board beyond what per-benchmark scatter explains.
	PValue float64 `json:"p_value"`
	// MaxAbsError/WorstBench locate the worst single benchmark.
	MaxAbsError float64 `json:"max_abs_error"`
	WorstBench  string  `json:"worst_bench"`
}

// confidence is the two-sided confidence level of the mean-error CI.
const confidence = 0.95

// finite replaces NaN/Inf with a neutral fallback, keeping every report
// field marshalable and diffable.
func finite(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}

// Compute derives the metrics of one sample group. Samples with a
// non-positive hardware CPI are rejected: a relative error against them
// is undefined and must surface as an error, not as NaN in a report.
func Compute(samples []Sample) (Metrics, error) {
	m := Metrics{N: len(samples), PValue: 1}
	if len(samples) == 0 {
		return m, nil
	}
	sim := make([]float64, len(samples))
	hw := make([]float64, len(samples))
	errs := make([]float64, len(samples))
	for i, s := range samples {
		if !(s.HWCPI > 0) || math.IsInf(s.HWCPI, 0) {
			return Metrics{}, fmt.Errorf("report: %s: hardware CPI %v is not positive and finite", s.Bench, s.HWCPI)
		}
		if math.IsNaN(s.SimCPI) || math.IsInf(s.SimCPI, 0) {
			return Metrics{}, fmt.Errorf("report: %s: simulated CPI %v is not finite", s.Bench, s.SimCPI)
		}
		sim[i] = s.SimCPI
		hw[i] = s.HWCPI
		errs[i] = s.Error()
		if abs := math.Abs(errs[i]); abs > m.MaxAbsError || m.WorstBench == "" {
			// Strict > means ties resolve to the earliest sample; suite
			// order is fixed, so the winner is deterministic either way.
			m.MaxAbsError, m.WorstBench = abs, s.Bench
		}
		m.RMSE += (sim[i] - hw[i]) * (sim[i] - hw[i])
		m.MAPE += math.Abs(errs[i])
	}
	n := float64(len(samples))
	m.RMSE = math.Sqrt(m.RMSE / n)
	m.MAPE /= n
	m.Correlation = finite(pearson(sim, hw), 0)
	m.MeanError = stats.Mean(errs)
	m.CILo, m.CIHi = m.MeanError, m.MeanError
	if len(errs) >= 2 {
		sd := stats.StdDev(errs)
		t := stats.TQuantile(1-(1-confidence)/2, len(errs)-1)
		half := finite(t*sd/math.Sqrt(n), 0)
		m.CILo, m.CIHi = m.MeanError-half, m.MeanError+half
		if _, p, err := stats.PairedT(sim, hw); err == nil {
			m.PValue = finite(p, 1)
		}
	}
	return m, nil
}

// pearson returns Pearson's correlation coefficient (NaN when undefined).
func pearson(x, y []float64) float64 {
	if len(x) < 2 {
		return math.NaN()
	}
	mx, my := stats.Mean(x), stats.Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Group is the report of one sample group — the whole suite or one
// benchmark category — with its budget verdict.
type Group struct {
	// Name is "suite" for the all-benchmarks group, else the category.
	Name string `json:"name"`
	Metrics
	Pass bool `json:"pass"`
	// Violations lists each tolerance the group breaks, human-readable.
	Violations []string `json:"violations,omitempty"`
}

// BoardReport is the full accuracy report of one board (one core of the
// reference platform) for one validated model configuration.
type BoardReport struct {
	Board string `json:"board"`
	Core  string `json:"core"`  // core kind: inorder | ooo
	Stage string `json:"stage"` // validation stage the config came from
	// Groups holds the suite group first, then one group per category in
	// the fixed presentation order the samples arrived in.
	Groups []Group `json:"groups"`
	// Samples are the raw per-benchmark observations, suite-ordered.
	Samples []Sample `json:"samples"`
	// Plausibility lists physical-invariant violations observed while
	// simulating the suite (empty for a physical model).
	Plausibility []string `json:"plausibility,omitempty"`
	Pass         bool     `json:"pass"`
}

// Build assembles one board's report: suite-level metrics, per-category
// metrics in first-appearance order, and pass/fail against the budget's
// tolerances for the board. plausibility lists invariant violations
// observed during simulation; any violation fails the board.
func Build(board, core, stage string, samples []Sample, plausibility []string, b Budget) (BoardReport, error) {
	if len(samples) == 0 {
		return BoardReport{}, fmt.Errorf("report: board %s has no samples", board)
	}
	br := BoardReport{
		Board:        board,
		Core:         core,
		Stage:        stage,
		Samples:      append([]Sample(nil), samples...),
		Plausibility: append([]string(nil), plausibility...),
		Pass:         true,
	}
	bb := b.Boards[board]

	suite, err := Compute(samples)
	if err != nil {
		return BoardReport{}, err
	}
	br.Groups = append(br.Groups, makeGroup("suite", suite, bb.Suite))

	var cats []string
	byCat := map[string][]Sample{}
	for _, s := range samples {
		if _, seen := byCat[s.Category]; !seen {
			cats = append(cats, s.Category)
		}
		byCat[s.Category] = append(byCat[s.Category], s)
	}
	for _, cat := range cats {
		cm, err := Compute(byCat[cat])
		if err != nil {
			return BoardReport{}, err
		}
		br.Groups = append(br.Groups, makeGroup(cat, cm, bb.Categories[cat]))
	}
	for _, g := range br.Groups {
		if !g.Pass {
			br.Pass = false
		}
	}
	if len(br.Plausibility) > 0 {
		br.Pass = false
	}
	return br, nil
}

func makeGroup(name string, m Metrics, tol Tolerance) Group {
	v := tol.Check(m)
	return Group{Name: name, Metrics: m, Pass: len(v) == 0, Violations: v}
}

// ValidationReport is the top-level artifact: one entry per validated
// board, overall pass/fail, and the budget it was judged against.
type ValidationReport struct {
	Version int           `json:"version"`
	Boards  []BoardReport `json:"boards"`
	Pass    bool          `json:"pass"`
}

// New assembles a ValidationReport from board reports, sorted by board
// name for deterministic output regardless of evaluation order.
func New(boards ...BoardReport) ValidationReport {
	sorted := append([]BoardReport(nil), boards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Board < sorted[j].Board })
	r := ValidationReport{Version: Version, Boards: sorted, Pass: true}
	for _, b := range sorted {
		if !b.Pass {
			r.Pass = false
		}
	}
	return r
}

// Err returns a gating error describing every failing group if the
// report violates its budget, else nil — the exit-status hook for the
// CI accuracy gate.
func (r ValidationReport) Err() error {
	if r.Pass {
		return nil
	}
	var parts []string
	for _, b := range r.Boards {
		for _, g := range b.Groups {
			for _, v := range g.Violations {
				parts = append(parts, fmt.Sprintf("%s/%s: %s", b.Board, g.Name, v))
			}
		}
		for _, p := range b.Plausibility {
			parts = append(parts, fmt.Sprintf("%s: plausibility: %s", b.Board, p))
		}
	}
	return fmt.Errorf("report: accuracy budget violated:\n  %s", joinLines(parts))
}

func joinLines(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "\n  "
		}
		out += p
	}
	return out
}
