package sim_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"racesim/internal/core"
	"racesim/internal/irace"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// A decoded trace remembers the memory hierarchy's decisions under the
// functional configurations replayed most recently (core.TapeMemo), and the
// replay path (Config.RunDecoded, RunBatch) replays them instead of
// simulating the hierarchy's state again. The reference simulator
// (reference_test.go) is never taped. The tests below hold live, recording
// and replaying runs to its Results.

// tapeTraces returns every Table II workload and a sample of the
// micro-benchmarks, short: synthesized workloads declare WarmData (no
// zero-fill pages), emulated micro-benchmarks run on cold data.
func tapeTraces(t testing.TB) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, p := range workload.Profiles() {
		tr, err := workload.Generate(p, workload.Options{Events: 1500})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	for _, name := range []string{"MD", "MIM", "STL2", "CS1", "ED1"} {
		b, ok := ubench.ByName(name)
		if !ok {
			t.Fatalf("missing micro-benchmark %s", name)
		}
		tr, err := b.Trace(ubench.Options{Scale: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// retimed returns a random variant of cfg with the same functional memory
// configuration: every tunable parameter — memory timing, core, branch
// unit, front end — is redrawn, and a draw is kept only if it leaves the
// tape key where it was and the configuration valid. What Params holds
// fixed on the timing side is redrawn by hand.
func retimed(cfg sim.Config, rng *rand.Rand) sim.Config {
	key := cfg.Mem.Functional()
	for _, d := range sim.Params(cfg.Kind) {
		next, err := sim.Apply(cfg, irace.Assignment{d.Name: d.Values[rng.Intn(len(d.Values))]})
		if err == nil && next.Mem.Functional() == key {
			cfg = next
		}
	}
	cfg.Mem.L1I.Ports, cfg.Mem.L1I.MSHRs = 1+rng.Intn(2), 1+rng.Intn(8)
	cfg.Mem.ZeroFillLatency = 1 + rng.Intn(90)
	return cfg
}

// tapeUnit is one functional configuration on one decode: variants of it
// that share its tape key, and what the reference returns for each.
type tapeUnit struct {
	d    *trace.Decoded
	cfgs []sim.Config
	want []core.Result
}

func tapeUnits(t *testing.T, perKind, variants int, rng *rand.Rand) []tapeUnit {
	t.Helper()
	functional := append(randomConfigs(t, core.InOrder, perKind, rng), randomConfigs(t, core.OutOfOrder, perKind, rng)...)
	for i := range functional {
		functional[i].Mem.ZeroFillOpt = i%2 == 0 // the boards have it, the public models do not
	}
	var units []tapeUnit
	for _, tr := range tapeTraces(t) {
		for _, f := range functional {
			u := tapeUnit{d: tr.Decoded(f.DecoderDepBug), cfgs: []sim.Config{f}}
			for len(u.cfgs) < variants {
				u.cfgs = append(u.cfgs, retimed(f, rng))
			}
			for _, cfg := range u.cfgs {
				u.want = append(u.want, reference(t, cfg, tr))
			}
			units = append(units, u)
		}
	}
	return units
}

// TestTapedReplayMatchesLive is the differential test of decision tapes
// (live ≡ record ≡ replay): random functional memory configurations of both
// core kinds — every hash, replacement and prefetcher kind, zero-fill on and
// off — over every Table II trace and a sample of micro-benchmarks, each in
// several variants that differ in memory timing, core, branch unit and
// front end. The variants of a configuration share a tape key, so run one
// after another on a decode they are its first sighting (live), its second
// (recording) and its later ones (replaying a tape recorded under another
// variant's timing); every field of every Result — the hierarchy's
// statistics, PortStalls and DRAM counters included — must equal the
// reference simulator's, which is never taped. Then the same through one
// RunBatch, and from several goroutines at once on each decode (run with
// -race in CI), where sightings, recordings, publishes and evictions
// interleave.
func TestTapedReplayMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const variants = 4
	units := tapeUnits(t, 4, variants, rng)

	check := func(pass string, u tapeUnit, i int, got core.Result, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %s variant %d on %s: %v", pass, u.cfgs[i].Name, i, u.d.Name, err)
		} else if got != u.want[i] {
			t.Errorf("%s: %s variant %d on %s differs from the reference\n got  %+v\n want %+v",
				pass, u.cfgs[i].Name, i, u.d.Name, got, u.want[i])
		}
	}

	// Sequential: sightings one to four of each key, in order.
	for _, u := range units {
		before := sim.TapeStats(u.d)
		for i, cfg := range u.cfgs {
			got, err := cfg.RunDecoded(u.d)
			check("sequential", u, i, got, err)
		}
		after := sim.TapeStats(u.d)
		if after.Live != before.Live+1 || after.Recorded != before.Recorded+1 || after.Replayed != before.Replayed+variants-2 {
			t.Fatalf("%s on %s: memo went from %+v to %+v over %d sightings of one key; want one live, one recorded, the rest replayed",
				u.cfgs[0].Name, u.d.Name, before, after, variants)
		}
	}

	// Batched: the variants of one key in one RunBatch, twice — the
	// first batch finds whatever the sequential pass left in the memo
	// (usually nothing: later keys evicted it), the second the tapes the
	// first one published.
	for _, u := range units {
		for round := 0; round < 2; round++ {
			rs, err := sim.RunBatch(u.cfgs, u.d)
			if err != nil {
				t.Fatalf("batched: %s on %s: %v", u.cfgs[0].Name, u.d.Name, err)
			}
			for i := range rs {
				check("batched", u, i, rs[i], nil)
			}
		}
	}

	// Concurrent: each goroutine walks all units from its own offset, so
	// several keys of a decode are in flight at once.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range units {
				u := units[(n+g*5)%len(units)]
				for i := range u.cfgs {
					i = (i + g) % len(u.cfgs)
					got, err := u.cfgs[i].RunDecoded(u.d)
					check("concurrent", u, i, got, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTapesCollectedWithTrace: the tape memo lives on the decoded trace
// (beside the behavior table), so dropping a trace drops its tapes; nothing
// process-wide holds them.
func TestTapesCollectedWithTrace(t *testing.T) {
	p, _ := workload.ByName("mcf")
	cfg := sim.PublicA53()
	collected := make(chan struct{}, 1)
	func() {
		tr, err := workload.Generate(p, workload.Options{Events: 1500})
		if err != nil {
			t.Fatal(err)
		}
		d := tr.Decoded(cfg.DecoderDepBug)
		for i := 0; i < 3; i++ {
			if _, err := cfg.RunDecoded(d); err != nil {
				t.Fatal(err)
			}
		}
		if st := sim.TapeStats(d); st.Tapes != 1 || st.Replayed != 1 {
			t.Fatalf("memo stats %+v after three runs of one configuration, want one tape, replayed once", st)
		}
		runtime.SetFinalizer(sim.DerivedOf(d), func(any) { collected <- struct{}{} })
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Error("a dropped trace's tape memo was not collected: something other than the decode holds it")
}
