package sim_test

import (
	"math/rand"
	"testing"

	"racesim/internal/cache"
	"racesim/internal/isa"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// probeRun is what probeDrive saw: per load of the trace, in order, whether
// its L1D access hit (only when the hierarchy keeps live statistics), and
// the loads that were probed with the answers.
type probeRun struct {
	hit    []bool
	probed map[int]bool
}

// probeDrive walks d's fetches, loads and stores through h with the
// kernels' protocol for miss registers: a load is probed only when a miss
// would have to wait for one of mshrs registers, and waits only when the
// probe says it misses. live says h keeps per-access statistics (live or
// recording), from which each load's L1D outcome is read.
func probeDrive(h *cache.Hierarchy, d *trace.Decoded, mshrs int, live bool) probeRun {
	run := probeRun{probed: map[int]bool{}}
	misses := make([]uint64, mshrs) // completion cycles, a ring
	next, full := 0, false
	now, lastLine := uint64(0), ^uint64(0)
	for i, id := range d.IDs {
		pc, addr := d.PC[i], d.MemAddr[i]
		if line := pc >> 6; line != lastLine {
			now += h.Fetch(now, pc).Latency / 4
			lastLine = line
		}
		switch d.Insts[id].Cls {
		case isa.ClassLoad:
			load := len(run.hit)
			if full && misses[next] > now {
				hit := h.Probe(addr)
				run.probed[load] = hit
				if !hit {
					now = misses[next]
				}
			}
			before := h.Stats().L1D.Hits
			res := h.Load(now, pc, addr)
			run.hit = append(run.hit, live && h.Stats().L1D.Hits > before)
			if res.Level > 1 {
				misses[next] = now + res.Latency
				if next++; next == mshrs {
					next, full = 0, true
				}
			}
		case isa.ClassStore:
			h.Store(now, pc, addr)
		}
		now++
	}
	return run
}

// TestProbeAnswersItsLoad checks what lets the kernels probe only the loads
// that would wait for a miss register: Probe's answer is the L1D outcome of
// the Load that follows it — a hit in the main array or the victim buffer —
// on a live hierarchy, on a recording one, and on one replaying the tape
// under other timing and another number of miss registers, which therefore
// probes other loads than the recording did and reads each answer from the
// tape entry of the load. Configurations are sampled from both tuning
// spaces with one or two miss registers, so that waits are frequent.
func TestProbeAnswersItsLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	traces := referenceTraces(t)
	h := new(cache.Hierarchy)
	var probes, missed, replayOnly int
	for i := 0; i < 16; i++ {
		base := sim.PublicA53()
		if i%2 == 1 {
			base = sim.PublicA72()
		}
		cfg := sampleConfig(t, base, rng)
		mshrs := 1 + i%2
		for _, tr := range traces {
			d := tr.Decoded(cfg.DecoderDepBug)
			live, err := cache.NewHierarchy(cfg.Mem)
			if err != nil {
				t.Fatal(err)
			}
			want := probeDrive(live, d, mshrs, true)
			if err := h.Record(cfg.Mem); err != nil {
				t.Fatal(err)
			}
			rec := probeDrive(h, d, mshrs, true)
			tape := h.Tape()
			for _, run := range []probeRun{want, rec} {
				for load, hit := range run.probed {
					if hit != run.hit[load] {
						t.Fatalf("%s on %s: load %d probed %v, its L1D access hit %v", cfg.Name, tr.Name, load, hit, run.hit[load])
					}
					probes++
					if !hit {
						missed++
					}
				}
			}

			timing := cfg.Mem
			timing.L1D.HitLatency += 1 + rng.Intn(4)
			timing.L2.HitLatency += rng.Intn(8)
			timing.DRAM.LatencyCycles += rng.Intn(100)
			if err := h.Replay(timing, tape); err != nil {
				t.Fatal(err)
			}
			got := probeDrive(h, d, 3-mshrs, false)
			if err := h.ReplayErr(); err != nil {
				t.Fatalf("%s on %s: %v", cfg.Name, tr.Name, err)
			}
			for load, hit := range got.probed {
				if hit != want.hit[load] {
					t.Fatalf("%s on %s: replay probed load %d %v, its recorded L1D access hit %v", cfg.Name, tr.Name, load, hit, want.hit[load])
				}
				if _, ok := rec.probed[load]; !ok {
					replayOnly++
				}
			}
		}
	}
	if probes == 0 || missed == 0 || missed == probes || replayOnly == 0 {
		t.Fatalf("the drive does not exercise probes: %d probes, %d missed, %d probed only in replay", probes, missed, replayOnly)
	}
	t.Logf("%d probes, %d answered miss; %d loads probed only by a replay", probes, missed, replayOnly)
}
