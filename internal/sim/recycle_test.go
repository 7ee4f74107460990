package sim_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"racesim/internal/branch"
	"racesim/internal/cache"
	"racesim/internal/core"
	"racesim/internal/irace"
	"racesim/internal/prefetch"
	"racesim/internal/sim"
	"racesim/internal/trace"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

// The replay path (Config.RunDecoded, RunBatch) runs on lanes recycled
// through a process-wide free list. The tests below hold it to the
// reference simulator (reference_test.go), which recycles nothing.

// shortTraces returns a few short traces of both sources: emulated
// micro-benchmarks (cold data, zero-fill pages) and synthesized workloads
// (WarmData).
func shortTraces(t testing.TB) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, name := range []string{"MD", "CS1", "ED1"} {
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
	for _, name := range []string{"mcf", "povray"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		tr, err := workload.Generate(p, workload.Options{Events: 1500})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// randomConfigs samples n valid configurations of kind: every tunable
// parameter drawn uniformly from Params, plus what Params holds fixed —
// cache geometry, the GHB depth and the undisclosed spatial prefetcher —
// so consecutive lanes differ in every array size a lane recycles. The
// first configurations cycle through every prefetcher, replacement, hash
// and predictor kind so none depends on the draw.
func randomConfigs(t testing.TB, kind core.Kind, n int, rng *rand.Rand) []sim.Config {
	t.Helper()
	base := sim.PublicA53()
	if kind == core.OutOfOrder {
		base = sim.PublicA72()
	}
	pfKinds := []prefetch.Kind{prefetch.KindNone, prefetch.KindNextLine, prefetch.KindStride, prefetch.KindGHB, prefetch.KindSpatial}
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	defs := sim.Params(kind)
	var out []sim.Config
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			t.Fatalf("only %d of %d sampled configurations were valid", len(out), n)
		}
		a := irace.Assignment{}
		for _, d := range defs {
			a[d.Name] = d.Values[rng.Intn(len(d.Values))]
		}
		cfg, err := sim.Apply(base, a)
		if err != nil {
			continue
		}
		i := len(out)
		cfg.Branch.Kind = branch.Kinds[i%len(branch.Kinds)]
		for _, lvl := range []*cache.Config{&cfg.Mem.L1D, &cfg.Mem.L2} {
			lvl.Prefetch.Kind = pfKinds[(i+lvl.SizeKB)%len(pfKinds)]
			lvl.Prefetch.GHBEntries = pick(16, 64, 256, 300)
			lvl.Repl = cache.ReplKinds[(i/2+lvl.SizeKB)%len(cache.ReplKinds)]
			lvl.Hash = cache.HashKinds[(i/3+lvl.SizeKB)%len(cache.HashKinds)]
		}
		cfg.Mem.L1D.SizeKB, cfg.Mem.L1D.Assoc = pick(8, 16, 32, 64), pick(1, 2, 4, 8)
		cfg.Mem.L1I.SizeKB, cfg.Mem.L1I.Assoc = pick(8, 16, 48), pick(1, 2)
		cfg.Mem.L2.SizeKB, cfg.Mem.L2.Assoc = pick(128, 256, 512, 2048), pick(4, 8, 16)
		if core.Config(cfg).Validate() != nil {
			continue // e.g. PLRU with a 48 KB 3-set-multiple geometry
		}
		cfg.Name = string(kind) + "-random"
		out = append(out, cfg)
	}
	return out
}

// TestRecycledLaneMatchesFresh is the differential test of lane
// recycling: random configurations of both kinds are replayed over short
// traces interleaved A, B, A, ... so every lane the free list hands out was
// last used by a different configuration — usually a different geometry,
// predictor, prefetcher and replacement policy — and every field of each
// Result must equal the reference simulator's, which builds everything
// fresh. The same is then done from several goroutines at once (run with
// -race in CI), where lanes also migrate between goroutines, and through
// RunBatch, where a whole vector of configurations is replayed back to
// back.
func TestRecycledLaneMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfgs := append(randomConfigs(t, core.InOrder, 10, rng), randomConfigs(t, core.OutOfOrder, 10, rng)...)
	rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	trs := shortTraces(t)

	type unit struct {
		cfg  sim.Config
		d    *trace.Decoded
		want core.Result
	}
	var units []unit
	want := map[*trace.Trace][]core.Result{}
	for _, tr := range trs {
		for _, cfg := range cfgs {
			ref := reference(t, cfg, tr)
			want[tr] = append(want[tr], ref)
			units = append(units, unit{cfg, tr.Decoded(cfg.DecoderDepBug), ref})
		}
	}

	check := func(u unit, pass string) {
		got, err := u.cfg.RunDecoded(u.d)
		if err != nil {
			t.Errorf("%s: %s on %s: %v", pass, u.cfg.Name, u.d.Name, err)
			return
		}
		if got != u.want {
			t.Errorf("%s: %s on %s: recycled lane result differs from the reference\n recycled  %+v\n reference %+v",
				pass, u.cfg.Name, u.d.Name, got, u.want)
		}
	}

	// One goroutine, twice over: the second pass runs every unit on a lane
	// that has already served the whole mix.
	for pass := 0; pass < 2; pass++ {
		for _, u := range units {
			check(u, "sequential")
		}
	}

	// Several goroutines, each walking the units from its own offset.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range units {
				check(units[(i+g*7)%len(units)], "concurrent")
			}
		}(g)
	}
	wg.Wait()

	// Batched: all configurations of a decoder variant over one trace.
	for _, tr := range trs {
		for _, depBug := range []bool{false, true} {
			var batch []sim.Config
			var refs []core.Result
			for i, cfg := range cfgs {
				if cfg.DecoderDepBug == depBug {
					batch, refs = append(batch, cfg), append(refs, want[tr][i])
				}
			}
			rs, err := sim.RunBatch(batch, tr.Decoded(depBug))
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range batch {
				if rs[i] != refs[i] {
					t.Errorf("batched: %s on %s: slot %d differs from the reference", cfg.Name, tr.Name, i)
				}
			}
		}
	}
}

// TestBehaviorsCollectedWithTrace: the behavior table is memoized on the
// decoded trace, so dropping a trace drops its decode and its table. A
// process that generates and drops traces (a serve worker, one job after
// another) must not grow: the old process-global table pinned every decode
// it had ever seen.
func TestBehaviorsCollectedWithTrace(t *testing.T) {
	p, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing workload mcf")
	}
	cfg := sim.PublicA53()
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties the lane free list's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Each trace is ~20k events: about 2 MB of events, decoded columns and
	// behavior table while it is reachable.
	churn := func(n int, seed int64) {
		for i := 0; i < n; i++ {
			tr, err := workload.Generate(p, workload.Options{Events: 20_000, Seed: seed + int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			d := tr.Decoded(cfg.DecoderDepBug)
			if len(sim.Behaviors(d)) == 0 {
				t.Fatal("empty behavior table")
			}
			if _, err := cfg.RunDecoded(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(4, 0)
	few := live()
	churn(40, 100)
	many := live()
	// Forty more dropped traces would add ~40 MB if anything pinned them.
	if many > few+8<<20 {
		t.Errorf("live heap grew from %d KB to %d KB over 40 generated-and-dropped traces: decoded traces are being retained",
			few>>10, many>>10)
	}
}
