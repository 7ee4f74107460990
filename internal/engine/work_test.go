package engine

import (
	"regexp"
	"testing"
)

// TestWorkCountsIndependentOfParallelism: a cold toy fig7 (the A53
// perturbation study) reports the same work on stderr — simulations and
// events stepped, by core kind — one unit at a time and two at once.
// Which replay records a decision tape depends on scheduling; how many
// simulations run and how many events they step does not, and neither
// does how many misses a trace-read alias class answers: each class is
// simulated once, whichever of its configurations gets there first.
func TestWorkCountsIndependentOfParallelism(t *testing.T) {
	workLine := regexp.MustCompile(`(?m)^work: .*$`)
	var lines []string
	for _, parallelism := range []int{1, 2} {
		job := Job{Kind: KindExperiments, Experiments: &ExperimentsJob{
			Scenario: "fig7", Scale: 0.001, Events: 2000, Budget1: 100, Budget2: 120, Seed: 1, Quiet: true,
		}}
		res, err := Execute(job, Options{Parallelism: parallelism, Capture: true})
		if err != nil {
			t.Fatal(err)
		}
		st := res.CacheStats
		if st.InOrderSims == 0 || st.InOrderEvents == 0 || st.Aliased == 0 || st.InOrderSims+st.OoOSims+st.Aliased != st.Misses {
			t.Errorf("parallelism %d: stats %+v; want every miss counted, simulated by kind or aliased", parallelism, st)
		}
		lines = append(lines, workLine.FindString(res.Log))
	}
	if lines[0] == "" || lines[0] != lines[1] {
		t.Errorf("the work line differs with parallelism:\n%q\n%q", lines[0], lines[1])
	}
}
