package sim_test

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"racesim/internal/core"
	"racesim/internal/dram"
	"racesim/internal/irace"
	"racesim/internal/isa"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// A decoded trace remembers the memory hierarchy's decisions under the
// tape keys replayed most recently (core.TapeMemo), and the replay path
// (Config.RunDecoded, RunBatch) replays them instead of simulating the
// hierarchy's state again. The reference simulator
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

// retimed returns a random variant of cfg with the same tape key: every
// tunable parameter — memory timing, core, branch unit, front end — is
// redrawn, and a draw is kept only if it leaves the tape key where it was
// and the configuration valid.
func retimed(cfg sim.Config, rng *rand.Rand) sim.Config {
	key := sim.TapeKey(cfg)
	for _, d := range sim.Params(cfg.Kind) {
		next, err := sim.Apply(cfg, irace.Assignment{d.Name: d.Values[rng.Intn(len(d.Values))]})
		if err == nil && sim.TapeKey(next) == key {
			cfg = next
		}
	}
	return cfg
}

// tapeUnit is one configuration on one decode: variants of it that share
// its tape key, and what the reference returns for each.
type tapeUnit struct {
	d    *trace.Decoded
	cfgs []sim.Config
	want []core.Result
}

func tapeUnits(t *testing.T, perKind, variants int, rng *rand.Rand) []tapeUnit {
	t.Helper()
	bases := append(tapeKeyBases(t, core.InOrder, perKind, rng), tapeKeyBases(t, core.OutOfOrder, perKind, rng)...)
	var units []tapeUnit
	for _, tr := range tapeTraces(t) {
		for _, f := range bases {
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
// (live ≡ record ≡ replay): the presets and random configurations of both
// core kinds — every hash, replacement and prefetcher kind, zero-fill on and
// off — over every Table II trace and a sample of micro-benchmarks, each in
// several variants that differ in timing-only and inactive tunables, core,
// branch unit and front end. The variants of a configuration share a tape key, so run one
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

// functional returns what of the reference's results for cfg over trs no
// timing may move: the instruction and class counts and every total of
// the memory hierarchy but its port stalls and DRAM counters (what a
// cache.Tape holds).
func functional(t *testing.T, cfg sim.Config, trs []*trace.Trace) []core.Result {
	t.Helper()
	var out []core.Result
	for _, tr := range trs {
		r := reference(t, cfg, tr)
		f := core.Result{Instructions: r.Instructions, ClassCounts: r.ClassCounts, Mem: r.Mem}
		f.Mem.L1I.PortStalls, f.Mem.L1D.PortStalls, f.Mem.L2.PortStalls = 0, 0, 0
		f.Mem.DRAM = dram.Stats{}
		out = append(out, f)
	}
	return out
}

// tapeKeyBases returns the preset of kind and n configurations sampled
// around it, every other one with zero-fill pages (the boards have them,
// the public models do not).
func tapeKeyBases(t *testing.T, kind core.Kind, n int, rng *rand.Rand) []sim.Config {
	t.Helper()
	sampled := randomConfigs(t, kind, n, rng)
	for i := range sampled {
		sampled[i].Mem.ZeroFillOpt = i%2 == 0
	}
	preset := sim.PublicA53()
	if kind == core.OutOfOrder {
		preset = sim.PublicA72()
	}
	return append([]sim.Config{preset}, sampled...)
}

// moveTo returns cfg with d set to v, and whether that is a valid move
// away from cfg.
func moveTo(t *testing.T, cfg sim.Config, d *sim.ParamDef, v string) (sim.Config, bool) {
	t.Helper()
	if d.Get(&cfg) == v {
		return cfg, false
	}
	if err := d.Set(&cfg, v); err != nil {
		t.Fatal(err)
	}
	return cfg, core.Config(cfg).Validate() == nil
}

// codePagesTrace jumps through more code pages than the smallest ITLB
// holds and fewer than the largest, eight times over: the other traces
// touch too few pages for the ITLB size to move a miss.
func codePagesTrace() *trace.Trace {
	var evs []trace.Event
	const code, pages = 0x100000, 40
	for r := 0; r < 8; r++ {
		for p := uint64(0); p < pages; p++ {
			pc := code + p*4096
			evs = append(evs, trace.Event{PC: pc, Word: isa.EncBCC(isa.CondNE, 1), Target: pc + 4096, Taken: true})
		}
	}
	return trace.New("code-pages", false, evs...)
}

// TestTapeKeyFollowsTheTable: the tape key is what the tunable table
// declares. On the presets and sampled configurations of both kinds, moving
// any tunable to any listed value moves the key exactly when the tunable is
// an active Mem tunable not declared timing-only, and then in that
// tunable's field; the key differs from the memory configuration only in
// the fields of timing-only and inactive tunables, so a field that is no
// tunable stays in it. And the declaration is no wider than it must be:
// every tunable that moves the key moves some functional counter of the
// reference simulator over tapeTraces somewhere on the sample, or it would
// split tapes for nothing and should be declared timing-only.
func TestTapeKeyFollowsTheTable(t *testing.T) {
	trs := append(tapeTraces(t), codePagesTrace())
	rng := rand.New(rand.NewSource(21))
	for _, kind := range []core.Kind{core.InOrder, core.OutOfOrder} {
		fields := sim.SetFields(t, kind)
		witnessed := map[string]bool{} // tunables seen moving the key: whether they moved a counter
		for _, base := range tapeKeyBases(t, kind, 8, rng) {
			key := sim.TapeKey(base)
			var loose []string // the fields the key may fix
			for _, d := range sim.Params(kind) {
				if d.TimingOnly || !d.Active(&base) {
					loose = append(loose, fields[d.Name])
				}
			}
			for _, f := range sim.ChangedFields(&sim.Config{Mem: base.Mem}, &sim.Config{Mem: key}) {
				if !slices.Contains(loose, f) {
					t.Errorf("%s: the tape key fixes %s, which no timing-only or inactive tunable names", base.Name, f)
				}
			}

			var unmoved []core.Result // on first need
			for _, d := range sim.Params(kind) {
				deciding := d.Active(&base) && strings.HasPrefix(fields[d.Name], "Mem.") && !d.TimingOnly
				for _, v := range d.Values {
					moved, ok := moveTo(t, base, &d, v)
					if !ok {
						continue
					}
					changed := sim.ChangedFields(&sim.Config{Mem: key}, &sim.Config{Mem: sim.TapeKey(moved)})
					if deciding != (len(changed) > 0) || deciding && !slices.Contains(changed, fields[d.Name]) {
						t.Errorf("%s: %s=%s moves the tape key in %v; it is active %v, timing-only %v",
							base.Name, d.Name, v, changed, d.Active(&base), d.TimingOnly)
					}
					if !deciding || witnessed[d.Name] {
						continue
					}
					if unmoved == nil {
						unmoved = functional(t, base, trs)
					}
					witnessed[d.Name] = !slices.Equal(functional(t, moved, trs), unmoved)
				}
			}
		}
		for name, moved := range witnessed {
			if !moved {
				t.Errorf("%s: %s moves the tape key but no functional counter on the sample: if it only moves timing, declare it timing-only",
					kind, name)
			}
		}
	}
}

// TestTimingTunableMovesNoFunctionalCounter is the metamorphic relation
// behind the timing-only declarations, checked against the reference
// simulator, which keeps no tape: on the presets and sampled
// configurations of both kinds, moving a tunable declared timing-only to
// any listed value leaves the instruction and class counts and every
// functional total of the memory hierarchy where they were, on every
// trace of tapeTraces.
func TestTimingTunableMovesNoFunctionalCounter(t *testing.T) {
	trs := tapeTraces(t)
	for _, kind := range []core.Kind{core.InOrder, core.OutOfOrder} {
		bases := tapeKeyBases(t, kind, 8, rand.New(rand.NewSource(22)))
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			moves := 0
			for _, base := range bases {
				unmoved := functional(t, base, trs)
				for _, d := range sim.Params(kind) {
					for _, v := range d.Values {
						moved, ok := moveTo(t, base, &d, v)
						if !ok || !d.TimingOnly {
							continue
						}
						moves++
						got := functional(t, moved, trs)
						for j, tr := range trs {
							if got[j] != unmoved[j] {
								t.Errorf("%s: %s=%s moved a functional counter on %s\n got  %+v\n want %+v",
									base.Name, d.Name, v, tr.Name, got[j], unmoved[j])
							}
						}
					}
				}
			}
			if moves == 0 {
				t.Fatal("no timing-only tunable was moved")
			}
		})
	}
}
