package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "mean")
	approx(t, StdDev(xs), 2.13809, 1e-4, "stddev")
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{3, 1, 4, 1, 5})
	want := []float64{3, 1.5, 4, 1.5, 5}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("rank[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		approx(t, GammaP(1, x), 1-math.Exp(-x), 1e-10, "GammaP(1,x)")
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.2, 1, 3} {
		approx(t, GammaP(0.5, x), math.Erf(math.Sqrt(x)), 1e-10, "GammaP(0.5,x)")
	}
}

func TestChiSquareSFKnownValues(t *testing.T) {
	// Critical values: chi2(0.05, df) quantiles.
	approx(t, ChiSquareSF(3.841, 1), 0.05, 2e-3, "chi2 df=1")
	approx(t, ChiSquareSF(5.991, 2), 0.05, 2e-3, "chi2 df=2")
	approx(t, ChiSquareSF(16.919, 9), 0.05, 2e-3, "chi2 df=9")
	if ChiSquareSF(0, 3) != 1 {
		t.Error("SF(0) should be 1")
	}
}

func TestStudentTSFKnownValues(t *testing.T) {
	// Two-sided p for t=2.086, df=20 is 0.05 (critical value table).
	approx(t, StudentTSF(2.086, 20), 0.05, 2e-3, "t df=20")
	approx(t, StudentTSF(2.776, 4), 0.05, 2e-3, "t df=4")
	approx(t, StudentTSF(0, 10), 1.0, 1e-9, "t=0")
}

func TestNormalCDF(t *testing.T) {
	approx(t, NormalCDF(0), 0.5, 1e-12, "Phi(0)")
	approx(t, NormalCDF(1.959964), 0.975, 1e-5, "Phi(1.96)")
	approx(t, NormalCDF(-1.959964), 0.025, 1e-5, "Phi(-1.96)")
}

func TestBetaIncBounds(t *testing.T) {
	if BetaInc(2, 3, 0) != 0 || BetaInc(2, 3, 1) != 1 {
		t.Error("BetaInc bounds wrong")
	}
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.37, 0.9} {
		approx(t, BetaInc(1, 1, x), x, 1e-10, "BetaInc(1,1,x)")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, BetaInc(2.5, 3.5, 0.3), 1-BetaInc(3.5, 2.5, 0.7), 1e-10, "symmetry")
}

func TestFriedmanDetectsClearWinner(t *testing.T) {
	// Treatment 0 always best, treatment 2 always worst.
	var costs [][]float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		base := rng.Float64()
		costs = append(costs, []float64{base, base + 1, base + 2})
	}
	fr, err := Friedman(costs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PValue >= 0.05 {
		t.Errorf("p = %g, want < 0.05 for a clear ranking", fr.PValue)
	}
	if fr.MeanRanks[0] >= fr.MeanRanks[1] || fr.MeanRanks[1] >= fr.MeanRanks[2] {
		t.Errorf("mean ranks not ordered: %v", fr.MeanRanks)
	}
}

func TestFriedmanNoDifference(t *testing.T) {
	// Exchangeable treatments: should rarely reject.
	rng := rand.New(rand.NewSource(7))
	rejections := 0
	for trial := 0; trial < 50; trial++ {
		var costs [][]float64
		for i := 0; i < 10; i++ {
			costs = append(costs, []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()})
		}
		fr, err := Friedman(costs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if fr.PValue < 0.05 {
			rejections++
		}
	}
	if rejections > 8 { // ~5% expected, allow slack
		t.Errorf("rejected %d/50 null cases", rejections)
	}
}

func TestFriedmanErrors(t *testing.T) {
	if _, err := Friedman(nil, 0.05); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := Friedman([][]float64{{1}, {2}}, 0.05); err == nil {
		t.Error("single treatment accepted")
	}
	if _, err := Friedman([][]float64{{1, 2}, {1}}, 0.05); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestPairedT(t *testing.T) {
	a := []float64{5.1, 4.9, 5.3, 5.0, 5.2, 5.1, 4.8, 5.0}
	b := make([]float64, len(a))
	for i := range a {
		b[i] = a[i] + 1 // constant shift: hugely significant
	}
	_, p, err := PairedT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("p = %g for constant shift, want ~0", p)
	}
	_, p, err = PairedT(a, a)
	if err != nil || p != 1 {
		t.Errorf("identical samples: p = %g, err = %v; want 1, nil", p, err)
	}
	if _, _, err := PairedT(a, a[:3]); err == nil {
		t.Error("unequal lengths accepted")
	}
}

func TestWilcoxon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + 0.8 + 0.1*rng.NormFloat64() // shifted
	}
	_, p, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.01 {
		t.Errorf("p = %g for a strong shift, want < 0.01", p)
	}
	// Small samples: conservative.
	_, p, _ = WilcoxonSignedRank(a[:5], b[:5])
	if p != 1 {
		t.Errorf("small sample p = %g, want 1", p)
	}
}

// Property: GammaP is monotonically increasing in x and bounded in [0,1].
func TestGammaPMonotoneProperty(t *testing.T) {
	f := func(a8, x8 uint8) bool {
		a := 0.5 + float64(a8%40)/4
		x := float64(x8) / 8
		p1 := GammaP(a, x)
		p2 := GammaP(a, x+0.5)
		return p1 >= -1e-12 && p2 <= 1+1e-12 && p2 >= p1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: ranks are a permutation-weighted set summing to n(n+1)/2.
func TestRanksSumProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = float64(i)
			}
		}
		sum := 0.0
		for _, r := range Ranks(xs) {
			sum += r
		}
		n := float64(len(xs))
		return math.Abs(sum-n*(n+1)/2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFriedmanRejectsNaNAndBadAlpha(t *testing.T) {
	ok := [][]float64{{1, 2, 3}, {2, 1, 3}, {1, 3, 2}}
	if _, err := Friedman(ok, 0.05); err != nil {
		t.Fatalf("clean matrix rejected: %v", err)
	}
	bad := [][]float64{{1, 2, 3}, {2, math.NaN(), 3}, {1, 3, 2}}
	if _, err := Friedman(bad, 0.05); err == nil {
		t.Error("NaN cost accepted: mean ranks would be garbage")
	}
	// +Inf is a legitimate cost (invalid configurations lose every race)
	// and must still rank deterministically.
	inf := [][]float64{{1, 2, math.Inf(1)}, {2, 1, math.Inf(1)}, {1, 3, math.Inf(1)}}
	fr, err := Friedman(inf, 0.05)
	if err != nil {
		t.Fatalf("+Inf cost rejected: %v", err)
	}
	if fr.MeanRanks[2] != 3 {
		t.Errorf("Inf treatment mean rank %v, want 3 (always last)", fr.MeanRanks[2])
	}
	ragged := [][]float64{{1, 2, 3}, {2, 1}}
	if _, err := Friedman(ragged, 0.05); err == nil {
		t.Error("ragged matrix accepted")
	}
	for _, a := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := Friedman(ok, a); err == nil {
			t.Errorf("alpha %v accepted", a)
		}
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Standard two-sided critical-value tables: t(p, df).
	cases := []struct {
		p    float64
		df   int
		want float64
	}{
		{0.95, 1, 6.3138},
		{0.975, 1, 12.7062},
		{0.995, 1, 63.6567},
		{0.9995, 1, 636.6192}, // beyond the old fixed bracket of 100
		{0.975, 2, 4.3027},
		{0.975, 5, 2.5706},
		{0.975, 10, 2.2281},
		{0.975, 30, 2.0423},
		{0.95, 10, 1.8125},
		{0.99, 7, 2.9980},
	}
	for _, c := range cases {
		got := tQuantile(c.p, c.df)
		if math.Abs(got-c.want)/c.want > 1e-3 {
			t.Errorf("tQuantile(%v, %d) = %v, want %v", c.p, c.df, got, c.want)
		}
		// Symmetry: the lower-tail quantile is the negated upper tail,
		// not the old silent 0.
		if lo := tQuantile(1-c.p, c.df); math.Abs(lo+got) > 1e-9 {
			t.Errorf("tQuantile(%v, %d) = %v, want %v", 1-c.p, c.df, lo, -got)
		}
	}
	if tQuantile(0.5, 7) != 0 {
		t.Error("median quantile should be 0")
	}
	if !math.IsInf(tQuantile(1, 3), 1) || !math.IsInf(tQuantile(0, 3), -1) {
		t.Error("p=0/1 should return ∓Inf")
	}
	if !math.IsNaN(tQuantile(0.9, 0)) {
		t.Error("df<=0 should return NaN")
	}
}

// TestFriedmanInvariantUnderPermutation: the race hands Friedman its cost
// matrix in whatever order instances and candidates happen to be listed,
// so the answer must not depend on it. Permuting the blocks must leave
// every field bit-identical; permuting the treatments must permute
// MeanRanks the same way and leave the other fields bit-identical. Costs
// are drawn from a few integers and +Inf, so ties, which get average
// ranks, are common. Ranks are then half-integers, every sum Friedman
// forms is exact in float64 whatever its order, and bit equality is the
// right check.
func TestFriedmanInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := []float64{1, 2, 3, 5, math.Inf(1)}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 500; trial++ {
		n, k := 2+rng.Intn(12), 2+rng.Intn(10)
		costs := make([][]float64, n)
		for i := range costs {
			costs[i] = make([]float64, k)
			for j := range costs[i] {
				costs[i][j] = vals[rng.Intn(len(vals))]
			}
		}
		want, err := Friedman(costs, 0.05)
		if err != nil {
			t.Fatal(err)
		}

		blocks := make([][]float64, n)
		for i, from := range rng.Perm(n) {
			blocks[i] = costs[from]
		}
		got, err := Friedman(blocks, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got.Statistic, want.Statistic) || !same(got.PValue, want.PValue) || !same(got.CriticalDiff, want.CriticalDiff) {
			t.Fatalf("trial %d: blocks permuted: %+v, want %+v", trial, got, want)
		}
		for j := range want.MeanRanks {
			if !same(got.MeanRanks[j], want.MeanRanks[j]) {
				t.Fatalf("trial %d: blocks permuted: mean ranks %v, want %v", trial, got.MeanRanks, want.MeanRanks)
			}
		}

		perm := rng.Perm(k)
		treatments := make([][]float64, n)
		for i, row := range costs {
			treatments[i] = make([]float64, k)
			for j, from := range perm {
				treatments[i][j] = row[from]
			}
		}
		got, err = Friedman(treatments, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got.Statistic, want.Statistic) || !same(got.PValue, want.PValue) || !same(got.CriticalDiff, want.CriticalDiff) {
			t.Fatalf("trial %d: treatments permuted by %v: %+v, want %+v", trial, perm, got, want)
		}
		for j, from := range perm {
			if !same(got.MeanRanks[j], want.MeanRanks[from]) {
				t.Fatalf("trial %d: treatments permuted by %v: mean ranks %v, want %v permuted", trial, perm, got.MeanRanks, want.MeanRanks)
			}
		}
	}
}
