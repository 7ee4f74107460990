package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// Ranks assigns fractional ranks (1-based, ties get the average rank).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j+2) / 2 // mean of 1-based ranks i+1..j+1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// FriedmanResult is the outcome of a Friedman rank test.
type FriedmanResult struct {
	Statistic float64
	PValue    float64
	// MeanRanks has one entry per treatment (configuration), lower = better.
	MeanRanks []float64
	// CriticalDiff is the least significant rank-sum difference for the
	// post-hoc comparison against the best treatment at the given alpha.
	CriticalDiff float64
}

// Friedman runs the Friedman test on an n-blocks × k-treatments matrix of
// costs (blocks = benchmark instances, treatments = configurations). It
// needs n >= 2 blocks, k >= 2 treatments, alpha in (0, 1), and finite or
// +Inf costs: a NaN would make the rank permutation undefined (Ranks
// sorts with <, under which NaN is unordered), silently producing garbage
// mean ranks, so it is rejected explicitly instead.
func Friedman(costs [][]float64, alpha float64) (FriedmanResult, error) {
	n := len(costs)
	if n < 2 {
		return FriedmanResult{}, fmt.Errorf("stats: Friedman needs >= 2 blocks, got %d", n)
	}
	if !(alpha > 0 && alpha < 1) { // also rejects NaN
		return FriedmanResult{}, fmt.Errorf("stats: Friedman alpha %v outside (0, 1)", alpha)
	}
	k := len(costs[0])
	if k < 2 {
		return FriedmanResult{}, fmt.Errorf("stats: Friedman needs >= 2 treatments, got %d", k)
	}
	sumRanks := make([]float64, k)
	for i, row := range costs {
		if len(row) != k {
			return FriedmanResult{}, fmt.Errorf("stats: ragged cost matrix: block %d has %d treatments, want %d", i, len(row), k)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				return FriedmanResult{}, fmt.Errorf("stats: Friedman cost is NaN at block %d, treatment %d", i, j)
			}
		}
		for j, r := range Ranks(row) {
			sumRanks[j] += r
		}
	}
	meanRanks := make([]float64, k)
	stat := 0.0
	for j, s := range sumRanks {
		meanRanks[j] = s / float64(n)
		d := s - float64(n)*float64(k+1)/2
		stat += d * d
	}
	stat *= 12.0 / (float64(n) * float64(k) * float64(k+1))
	p := ChiSquareSF(stat, k-1)

	// Post-hoc least significant difference on rank sums (Conover): uses
	// the t distribution with (n-1)(k-1) degrees of freedom.
	df := (n - 1) * (k - 1)
	sumSq := 0.0
	for _, row := range costs {
		for _, r := range Ranks(row) {
			sumSq += r * r
		}
	}
	a1 := sumSq
	c1 := float64(n) * float64(k) * float64(k+1) * float64(k+1) / 4
	denom := float64(df)
	var cd float64
	if a1 > c1 && denom > 0 {
		t := tQuantile(1-alpha/2, df)
		cd = t * math.Sqrt(2*float64(n)*(a1-c1)/denom*(1-stat/(float64(n)*float64(k-1))))
		if math.IsNaN(cd) || cd <= 0 {
			cd = t * math.Sqrt(2*float64(n)*(a1-c1)/denom)
		}
	}
	return FriedmanResult{Statistic: stat, PValue: p, MeanRanks: meanRanks, CriticalDiff: cd}, nil
}

// tQuantile returns the p-quantile of the t distribution with df degrees
// of freedom via bisection on StudentTSF. Lower-tail quantiles use the
// distribution's symmetry (the old code silently returned 0 for any
// p <= 0.5); the upper bracket grows geometrically until it encloses the
// quantile, since a fixed cap clips heavy-tailed cases such as df = 1
// with tiny alpha (t(0.9995, 1) ≈ 636.6 > 100).
func tQuantile(p float64, df int) float64 {
	switch {
	case df <= 0 || math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p == 0.5:
		return 0
	case p < 0.5:
		return -tQuantile(1-p, df)
	}
	// A pure function of (p, df), and a race asks for the same few pairs
	// at every step: the bisection below runs once per pair.
	k := tKey{p, df}
	tQuantiles.Lock()
	q, ok := tQuantiles.m[k]
	tQuantiles.Unlock()
	if !ok {
		q = tBisect(p, df)
		tQuantiles.Lock()
		tQuantiles.m[k] = q
		tQuantiles.Unlock()
	}
	return q
}

type tKey struct {
	p  float64
	df int
}

// tQuantiles memoizes tQuantile's bisections. The pairs a process asks
// for are a few confidence levels times the degrees of freedom of its
// races, so the map stays small.
var tQuantiles = struct {
	sync.Mutex
	m map[tKey]float64
}{m: map[tKey]float64{}}

// tBisect is tQuantile for 0.5 < p < 1 and df > 0: bisection on
// StudentTSF.
func tBisect(p float64, df int) float64 {
	target := 2 * (1 - p) // two-sided tail mass
	hi := 1.0
	for StudentTSF(hi, df) > target && hi < 1e15 {
		hi *= 2
	}
	lo := hi / 2
	if hi <= 1 {
		lo = 0
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTSF(mid, df) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TQuantile returns the p-quantile of Student's t distribution with df
// degrees of freedom — the multiplier for mean-error confidence
// intervals (e.g. TQuantile(0.975, n-1) for a two-sided 95% CI).
func TQuantile(p float64, df int) float64 { return tQuantile(p, df) }

// PairedT runs a two-sided paired t-test on equal-length samples and
// returns the t statistic and p-value. Identical samples give p = 1.
func PairedT(a, b []float64) (tstat, p float64, err error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, 1, fmt.Errorf("stats: paired t-test needs equal samples of >= 2")
	}
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	m := Mean(d)
	sd := StdDev(d)
	if sd == 0 {
		if m == 0 {
			return 0, 1, nil
		}
		return math.Inf(sign(m)), 0, nil
	}
	t := m / (sd / math.Sqrt(float64(len(d))))
	return t, StudentTSF(t, len(d)-1), nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// WilcoxonSignedRank runs a two-sided Wilcoxon signed-rank test with the
// normal approximation (adequate for n >= 10; smaller samples return
// conservative p = 1).
func WilcoxonSignedRank(a, b []float64) (w, p float64, err error) {
	if len(a) != len(b) {
		return 0, 1, fmt.Errorf("stats: Wilcoxon needs equal-length samples")
	}
	var diffs []float64
	for i := range a {
		if d := a[i] - b[i]; d != 0 {
			diffs = append(diffs, d)
		}
	}
	n := len(diffs)
	if n < 10 {
		return 0, 1, nil
	}
	abs := make([]float64, n)
	for i, d := range diffs {
		abs[i] = math.Abs(d)
	}
	ranks := Ranks(abs)
	var wPlus, wMinus float64
	for i, d := range diffs {
		if d > 0 {
			wPlus += ranks[i]
		} else {
			wMinus += ranks[i]
		}
	}
	w = math.Min(wPlus, wMinus)
	mean := float64(n*(n+1)) / 4
	sd := math.Sqrt(float64(n*(n+1)*(2*n+1)) / 24)
	z := (w - mean) / sd
	p = 2 * NormalCDF(z) // w <= mean so z <= 0
	if p > 1 {
		p = 1
	}
	return w, p, nil
}
