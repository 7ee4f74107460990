// Package expt regenerates every table and figure of the paper's
// evaluation: Table I (micro-benchmark suite), Table II (SPEC workloads),
// Figure 2 (racing dynamics), Figure 4 (micro-benchmark error before and
// after tuning), Figures 5–6 (SPEC CPI error of the tuned models), Figures
// 7–8 (close-to-optimum worst configurations), plus the staged-validation
// narrative of Sec. IV-B, each as an aligned text table with ASCII bars.
package expt

import (
	"fmt"
	"strings"
	"time"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Bar renders a proportional ASCII bar for a value against a maximum.
func Bar(value, max float64, width int) string {
	if max <= 0 {
		max = 1
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n)
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Experiment couples a regenerated artifact with the paper's claim, for
// EXPERIMENTS.md-style reporting.
type Experiment struct {
	ID       string // "table1", "fig4", ...
	Title    string
	Paper    string // what the paper reports
	Measured string // what this reproduction measures
	Body     string // rendered table/figure

	// Elapsed is wall-clock time: from Context.All, the time the experiment
	// took; from a scenario run, whose experiments overlap, the
	// experiment's share of the run's wall time (scenario.RunSaving), so
	// that the shares add up to the run. It is reported by the drivers on
	// stderr but deliberately excluded from Render, so rendered output
	// stays byte-identical across machines, parallelism settings and cache
	// warmth.
	Elapsed time.Duration
}

// Render formats the experiment as markdown-ish text.
func (e Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", e.ID, e.Title)
	fmt.Fprintf(&b, "Paper:    %s\n", e.Paper)
	fmt.Fprintf(&b, "Measured: %s\n\n", e.Measured)
	b.WriteString(e.Body)
	b.WriteByte('\n')
	return b.String()
}
