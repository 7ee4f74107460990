//go:build unix

package validate

import (
	"syscall"
	"testing"
	"time"

	"racesim/internal/hw"
	"racesim/internal/sim"
	"racesim/internal/simcache"
	"racesim/internal/ubench"
)

// processCPU is the user+system time the process has used so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkTuneRace is one cold tuning race at the shape of the repository
// benchmark's tune_inorder workload: the A53 model raced against the A53
// board's 40 micro-benchmarks at scale 0.004, budget 1000, seed 1, each
// iteration on a fresh simulation cache. ms_per_race is its wall time and
// cores_busy the process's CPU time over that wall time: how many cores the
// race kept busy. Regenerate with:
//
//	go test -run '^$' -bench TuneRace -benchtime 20x ./internal/validate/
func BenchmarkTuneRace(b *testing.B) {
	p, err := hw.Firefly()
	if err != nil {
		b.Fatal(err)
	}
	suite, err := MeasureSuiteParallel(p.A53, ubench.Options{Scale: 0.004}, 0)
	if err != nil {
		b.Fatal(err)
	}
	cpu := processCPU(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tune(sim.PublicA53(), suite, TuneOptions{Budget: 1000, Seed: 1, Cache: simcache.New()}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	wall := b.Elapsed()
	b.ReportMetric(wall.Seconds()*1e3/float64(b.N), "ms_per_race")
	b.ReportMetric((processCPU(b)-cpu).Seconds()/wall.Seconds(), "cores_busy")
}
