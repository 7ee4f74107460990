// Package telemetrytest holds test support for the telemetry package's
// exposition format. Tests import it; the product never does.
package telemetrytest

import (
	"fmt"
	"regexp"
	"strings"
)

// promLine matches every legal non-comment line of the text exposition
// format: name{labels} value. A minimal validity check that every
// snapshot line parses.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// ValidatePrometheus checks text against the exposition format rules:
// every line is a comment or a parsable sample, every sample's family
// has a preceding TYPE line, histogram buckets are cumulative and end
// with +Inf. The telemetry registry's tests and the engine's /metrics
// test share it.
func ValidatePrometheus(text string) error {
	typed := map[string]string{}
	var lastBucketFamily string
	var lastCum uint64
	sawInf := true
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[parts[2]] = parts[3]
			continue
		case strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "#"):
			continue
		case strings.TrimSpace(line) == "":
			return fmt.Errorf("line %d: blank line inside exposition", ln+1)
		}
		if !promLine.MatchString(line) {
			return fmt.Errorf("line %d: unparsable sample: %q", ln+1, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if k, ok := typed[strings.TrimSuffix(name, suffix)]; ok && k == "histogram" {
					base = strings.TrimSuffix(name, suffix)
				}
			}
		}
		if _, ok := typed[base]; !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE line", ln+1, name)
		}
		// Histogram bucket monotonicity + +Inf terminator.
		if strings.HasSuffix(name, "_bucket") && typed[base] == "histogram" {
			var cum uint64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum); err != nil {
				return fmt.Errorf("line %d: bucket value not an integer: %q", ln+1, line)
			}
			if base != lastBucketFamily {
				if !sawInf {
					return fmt.Errorf("histogram %q ended without a +Inf bucket", lastBucketFamily)
				}
				lastBucketFamily, lastCum, sawInf = base, 0, false
			}
			if cum < lastCum {
				return fmt.Errorf("line %d: bucket counts not cumulative: %q", ln+1, line)
			}
			lastCum = cum
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
				lastBucketFamily, lastCum = "", 0
			}
		}
	}
	if !sawInf {
		return fmt.Errorf("histogram %q ended without a +Inf bucket", lastBucketFamily)
	}
	return nil
}
