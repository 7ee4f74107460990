package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is the noise-aware description of one timing: the median is the
// reported value, quartiles and the sample count say how much to trust it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// computed here and by the driver agree. Fewer than two samples have no
// spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// cpuSeconds is the process CPU time so far (user+sys) and its system
// part alone.
func cpuSeconds() (total, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// stolenSeconds is the time the hypervisor ran something else while a vCPU
// of this guest wanted to run (the steal column of /proc/stat, summed over
// vCPUs), or 0 where the kernel does not report it.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// stopwatch measures one closed-loop operation: wall time, process CPU
// time and the vCPU time stolen from the guest meanwhile.
//
// The hosts this benchmark runs on are shared virtual machines. Over six
// minutes of one fixed piece of work, wall time ranged from 1.1 s to 4.8 s
// and followed the steal counter with a correlation of 0.98. Wall times are
// therefore taken less the mean steal per vCPU: the time during which the
// vCPUs were, on average, the guest's to use. This never over-corrects (a
// single-threaded phase loses all of its vCPU's steal, not the mean),
// changes nothing on a host without steal, and left an interquartile
// spread of 8% where the uncorrected times had 43%. What steal does not
// explain is hostSpeed's business.
type stopwatch struct {
	t0                  time.Time
	cpu0, sys0, stolen0 float64
}

func startWatch() stopwatch {
	s := stopwatch{t0: time.Now(), stolen0: stolenSeconds()}
	s.cpu0, s.sys0 = cpuSeconds()
	return s
}

// clock is one measurement: Wall is corrected for steal, Raw is not; Sys
// is the system part of CPU.
type clock struct {
	Wall, Raw, CPU, Sys, Stolen float64
}

func (s stopwatch) stop() clock {
	cpu, sys := cpuSeconds()
	c := clock{Raw: time.Since(s.t0).Seconds(), CPU: cpu - s.cpu0, Sys: sys - s.sys0, Stolen: stolenSeconds() - s.stolen0}
	c.Wall = c.Raw - c.Stolen/float64(runtime.NumCPU())
	return c
}

// hostFacts records where the numbers were taken.
type hostFacts struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1_at_start"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Load1:      -1,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.Load1 = v
			}
		}
	}
	return h
}

func (h hostFacts) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q load1=%.2f",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Load1)
}

// timeOps runs fn (which performs and returns a number of operations)
// repeatedly until minDur has elapsed and returns nanoseconds per
// operation. prep, when non-nil, runs before every call outside the clock
// (fresh structures per pass). One warm-up call is discarded.
func timeOps(minDur time.Duration, prep func(), fn func() int) (nsPerOp float64) {
	var total time.Duration
	ops := 0
	for pass := 0; pass == 0 || total < minDur; pass++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		n := fn()
		if pass == 0 {
			continue
		}
		total += time.Since(t0)
		ops += n
		if n == 0 {
			break
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(ops)
}
