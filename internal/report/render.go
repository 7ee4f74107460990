package report

import (
	"encoding/json"
	"fmt"
	"strings"
)

// MarshalJSON renders the report as indented JSON with a trailing
// newline — the bytes of a validate job's result.report, which `racesim
// validate -report-dir` persists to the reports/ history. Field order is fixed by the
// struct definitions and boards are name-sorted, so two runs over the
// same data produce identical bytes.
func (r ValidationReport) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Render writes the human-readable report. Every row is fixed-width
// formatted from finite values in a fixed order, so the text is
// byte-deterministic across runs and parallelism levels — the same
// guarantee the per-category error lines established, now for the full
// statistical table.
func (r ValidationReport) Render() string {
	var b strings.Builder
	for i, br := range r.Boards {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "validation report: %s (%s core, stage %s)\n", br.Board, br.Core, br.Stage)
		fmt.Fprintf(&b, "  %-14s %3s  %6s  %7s  %6s  %7s  %18s  %7s  %-14s %s\n",
			"group", "n", "corr", "rmse", "mape", "bias", "95% CI", "p", "worst", "verdict")
		for _, g := range br.Groups {
			verdict := "ok"
			if !g.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(&b, "  %-14s %3d  %6.3f  %7.4f  %5.1f%%  %+6.1f%%  [%+6.1f%%, %+6.1f%%]  %7.4f  %-14s %s\n",
				g.Name, g.N, g.Correlation, g.RMSE, g.MAPE*100, g.MeanError*100,
				g.CILo*100, g.CIHi*100, g.PValue,
				fmt.Sprintf("%s %.1f%%", g.WorstBench, g.MaxAbsError*100), verdict)
			for _, v := range g.Violations {
				fmt.Fprintf(&b, "    ! %s\n", v)
			}
		}
		for _, p := range br.Plausibility {
			fmt.Fprintf(&b, "  ! plausibility: %s\n", p)
		}
	}
	if r.Pass {
		b.WriteString("accuracy budget: PASS\n")
	} else {
		b.WriteString("accuracy budget: FAIL\n")
	}
	return b.String()
}
