package validate

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/ubench"
)

// TestPipelineStages pins the stage semantics the one-round callers (Fig. 2,
// the budget and noise sweeps) rely on: a tuning stage is exactly Tune on
// the raw suite, the k-th round draws Seed+k from the config the stage
// before it ended with, an evaluate-only stage is exactly ErrorsWith, and
// a cancellation between stages stops the pipeline before the next race.
func TestPipelineStages(t *testing.T) {
	p, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	const budget, seed = 120, 5
	base := sim.PublicA53()
	opt := PipelineOptions{Seed: seed, UbenchScale: 0.002, Parallelism: 2}
	ms := measurements(t, p.A53)

	sameRound := func(t *testing.T, got StageResult, want *TuneResult) {
		t.Helper()
		if !reflect.DeepEqual(got.Config, want.Tuned) {
			t.Errorf("stage %s: config differs from Tune's", got.Name)
		}
		if !reflect.DeepEqual(got.Errors, want.Errors) {
			t.Errorf("stage %s: errors differ from Tune's", got.Name)
		}
		if got.Irace == nil || !reflect.DeepEqual(got.Irace.RaceTrace, want.Irace.RaceTrace) {
			t.Errorf("stage %s: race trace differs from Tune's", got.Name)
		}
	}

	t.Run("one tuning stage is Tune", func(t *testing.T) {
		st, err := Pipeline(p.A53, base, []Stage{{Name: "tuned", Budget: budget}}, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Tune(base, ms, TuneOptions{Budget: budget, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(st) != 1 {
			t.Fatalf("%d stages, want 1", len(st))
		}
		sameRound(t, st[0], want)
	})

	t.Run("evaluate, then rounds from the previous config", func(t *testing.T) {
		st, err := Pipeline(p.A53, base, []Stage{
			{Name: "untuned"}, {Name: "first", Budget: budget}, {Name: "second", Budget: budget},
		}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(st) != 3 {
			t.Fatalf("%d stages, want 3", len(st))
		}
		errs, err := ErrorsWith(base, ms, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st[0].Config, base) || st[0].Irace != nil || !reflect.DeepEqual(st[0].Errors, errs) {
			t.Errorf("evaluate-only stage: config changed, race ran or errors differ from ErrorsWith's")
		}
		first, err := Tune(base, ms, TuneOptions{Budget: budget, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sameRound(t, st[1], first)
		second, err := Tune(first.Tuned, ms, TuneOptions{Budget: budget, Seed: seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		sameRound(t, st[2], second)
	})

	t.Run("cancelled after the first stage", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		logs := 0
		o := opt
		o.Context, o.Cache = ctx, simcache.New()
		o.Log = func(string, ...any) {
			logs++
			cancel()
		}
		_, err := Pipeline(p.A53, base, PaperStages(budget, budget), o)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if logs != 1 {
			t.Errorf("%d log lines, want the untuned stage's only", logs)
		}
		if st := o.Cache.Stats(); st.Misses != uint64(len(ubench.Suite())) {
			t.Errorf("%d simulations, want the untuned evaluation's %d and no race", st.Misses, len(ubench.Suite()))
		}
	})
}
