package core_test

import (
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// TestReplayIgnoresOtherKindFields: Validate checks only the kind's own
// back-end fields, so a configuration may carry anything in the other
// kind's. Such a configuration must replay exactly like its preset — a
// lane that reset the back end its kind does not use would fail on it.
func TestReplayIgnoresOtherKindFields(t *testing.T) {
	var trs []*trace.Trace
	b, ok := ubench.ByName("MD")
	if !ok {
		t.Fatal("missing micro-benchmark MD")
	}
	tr, err := b.Trace(ubench.Options{Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	trs = append(trs, tr)
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing workload mcf")
	}
	if tr, err = workload.Generate(p, workload.Options{Events: 1500}); err != nil {
		t.Fatal(err)
	}
	trs = append(trs, tr)

	a72 := sim.PublicA72()
	a72.StoreBufferEntries, a72.Width, a72.MaxMemPerCycle = -1, 0, 0
	a53 := sim.PublicA53()
	a53.ROBEntries, a53.IQEntries, a53.LQEntries, a53.SQEntries, a53.DispatchWidth = -1, -1, -1, -1, 0
	for _, c := range []struct{ preset, odd sim.Config }{
		{sim.PublicA72(), a72},
		{sim.PublicA53(), a53},
	} {
		if err := core.Config(c.odd).Validate(); err != nil {
			t.Fatalf("%s with the other kind's fields out of range: %v", c.preset.Name, err)
		}
		for _, tr := range trs {
			want, err := c.preset.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.odd.Run(tr)
			if err != nil {
				t.Fatalf("%s with the other kind's fields out of range on %s: %v", c.preset.Name, tr.Name, err)
			}
			if got != want {
				t.Errorf("%s on %s: the other kind's fields moved the result\n got  %+v\n want %+v", c.preset.Name, tr.Name, got, want)
			}
		}
	}
}
