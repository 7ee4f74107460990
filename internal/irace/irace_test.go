package irace

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// quadEval is a synthetic tuning problem: cost is the squared distance of
// the chosen values from a hidden optimum, plus per-instance noise-like
// variation (deterministic in instance index).
type quadEval struct {
	space     *Space
	optimum   map[string]int // target index per parameter
	instances int
	calls     atomic.Int64
}

func (e *quadEval) NumInstances() int { return e.instances }

func (e *quadEval) Cost(cfg Assignment, instance int) float64 {
	e.calls.Add(1)
	cost := 0.0
	for _, p := range e.space.Params {
		idx := valueIndex(p, cfg)
		d := float64(idx - e.optimum[p.Name])
		w := 1.0 + 0.3*math.Sin(float64(instance)*2.1+float64(len(p.Name)))
		cost += w * d * d
	}
	return cost
}

func ordinalParam(name string, n int) Param {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = strconv.Itoa(i)
	}
	return Param{Name: name, Values: vals, Ordered: true}
}

func testSpace(t *testing.T, nParams, nValues int) (*Space, *quadEval) {
	t.Helper()
	params := make([]Param, nParams)
	optimum := map[string]int{}
	for i := range params {
		params[i] = ordinalParam(fmt.Sprintf("p%02d", i), nValues)
		optimum[params[i].Name] = (i*3 + 1) % nValues
	}
	s, err := NewSpace(params)
	if err != nil {
		t.Fatal(err)
	}
	return s, &quadEval{space: s, optimum: optimum, instances: 12}
}

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(nil); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := NewSpace([]Param{{Name: "a"}}); err == nil {
		t.Error("valueless param accepted")
	}
	if _, err := NewSpace([]Param{{Name: "a", Values: []string{"1", "1"}}}); err == nil {
		t.Error("duplicate values accepted")
	}
	if _, err := NewSpace([]Param{
		{Name: "a", Values: []string{"1"}},
		{Name: "a", Values: []string{"2"}},
	}); err == nil {
		t.Error("duplicate names accepted")
	}
	s, err := NewSpace([]Param{{Name: "a", Values: []string{"x", "y"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Assignment{"a": "x"}); err != nil {
		t.Error(err)
	}
	if err := s.Validate(Assignment{"a": "z"}); err == nil {
		t.Error("invalid value accepted")
	}
}

func TestAssignmentKeyCanonical(t *testing.T) {
	a := Assignment{"b": "2", "a": "1"}
	b := Assignment{"a": "1", "b": "2"}
	if a.Key() != b.Key() {
		t.Error("key not canonical")
	}
	c := a.Clone()
	c["a"] = "9"
	if a["a"] != "1" {
		t.Error("Clone did not copy")
	}
}

func TestTunerFindsOptimumSmallSpace(t *testing.T) {
	space, eval := testSpace(t, 4, 8)
	tuner, err := New(space, eval, Options{Budget: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The optimum has cost 0; the tuner should land very close.
	if res.BestCost > 3.0 {
		t.Errorf("best cost %.3f, want near 0", res.BestCost)
	}
	// Check each parameter is within 1 step of the hidden optimum.
	for _, p := range space.Params {
		got := valueIndex(p, res.Best)
		want := eval.optimum[p.Name]
		if d := got - want; d < -1 || d > 1 {
			t.Errorf("param %s: index %d, optimum %d", p.Name, got, want)
		}
	}
}

func TestTunerRespectsBudget(t *testing.T) {
	space, eval := testSpace(t, 6, 6)
	tuner, err := New(space, eval, Options{Budget: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The budget is a hard cap: no generation-batch overshoot, no extra
	// finalization spend.
	if res.Evaluations > 400 {
		t.Errorf("used %d evaluations for budget 400", res.Evaluations)
	}
	if int(eval.calls.Load()) != res.Evaluations {
		t.Errorf("recorded %d evals but evaluator saw %d (cache mismatch)", res.Evaluations, eval.calls.Load())
	}
}

// TestEvaluationsNeverExceedBudget is the regression test for the batch
// overspend: race() used to check the budget only at the top of each
// instance step and then charge a whole generation×instance batch, so
// Evaluations could exceed Budget by O(candidates). The cap must now hold
// exactly, across seeds, budget sizes and parallelism, with the evaluator
// call count agreeing with the accounting.
func TestEvaluationsNeverExceedBudget(t *testing.T) {
	for _, budget := range []int{25, 60, 150, 400, 1000} {
		for seed := int64(0); seed < 6; seed++ {
			space, eval := testSpace(t, 5, 7)
			tuner, err := New(space, eval, Options{Budget: budget, Seed: seed, Parallelism: 3})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tuner.Run()
			if err != nil {
				// Degenerate budgets may legitimately be too small to
				// race at all; they must fail, not overspend.
				if budget >= 2*5 { // 2 candidates × firstTest
					t.Errorf("budget %d seed %d: %v", budget, seed, err)
				}
				continue
			}
			if res.Evaluations > budget {
				t.Errorf("budget %d seed %d: used %d evaluations", budget, seed, res.Evaluations)
			}
			if got := int(eval.calls.Load()); got != res.Evaluations {
				t.Errorf("budget %d seed %d: recorded %d evals, evaluator saw %d",
					budget, seed, res.Evaluations, got)
			}
			if res.Best == nil {
				t.Errorf("budget %d seed %d: no best returned", budget, seed)
			}
		}
	}
}

// nanEval poisons one instance with NaN cost; the race must surface the
// Friedman NaN error instead of racing on an undefined rank permutation.
type nanEval struct {
	space     *Space
	instances int
}

func (e *nanEval) NumInstances() int { return e.instances }

func (e *nanEval) Cost(cfg Assignment, instance int) float64 {
	if instance == 3 {
		return math.NaN()
	}
	c := 0.0
	for _, p := range e.space.Params {
		idx := valueIndex(p, cfg)
		c += float64(idx * idx)
	}
	return c + float64(instance)
}

func TestNaNCostSurfacesAsError(t *testing.T) {
	space, _ := testSpace(t, 4, 6)
	tuner, err := New(space, &nanEval{space: space, instances: 12}, Options{Budget: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Run(); err == nil {
		t.Error("NaN cost did not surface as an error")
	}
}

func TestTunerBeatsRandomSearch(t *testing.T) {
	space, eval := testSpace(t, 8, 8)
	budget := 1200
	tuner, err := New(space, eval, Options{Budget: budget, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Run()
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomSearch(space, eval, Options{Budget: budget, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > rnd.BestCost {
		t.Errorf("irace best %.3f worse than random search %.3f at equal budget", res.BestCost, rnd.BestCost)
	}
}

func TestRaceEliminationHappens(t *testing.T) {
	space, eval := testSpace(t, 5, 8)
	tuner, err := New(space, eval, Options{Budget: 1200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RaceTrace) == 0 {
		t.Fatal("no race trace recorded")
	}
	// Within some iteration, the alive count must shrink (elimination).
	shrank := false
	for i := 1; i < len(res.RaceTrace); i++ {
		a, b := res.RaceTrace[i-1], res.RaceTrace[i]
		if a.Iteration == b.Iteration && b.Alive < a.Alive {
			shrank = true
			break
		}
	}
	if !shrank {
		t.Error("no elimination observed in any race")
	}
}

func TestTunerDeterministicForSeed(t *testing.T) {
	space, eval := testSpace(t, 4, 6)
	run := func() *Result {
		tu, err := New(space, eval, Options{Budget: 600, Seed: 11, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		r, err := tu.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := run()
	// Fresh evaluator to reset the cache path.
	_, eval2 := testSpace(t, 4, 6)
	tu, _ := New(space, eval2, Options{Budget: 600, Seed: 11, Parallelism: 4})
	b, err := tu.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Key() != b.Best.Key() {
		t.Errorf("same seed, different best: %s vs %s", a.Best.Key(), b.Best.Key())
	}
}

func TestNewValidatesInputs(t *testing.T) {
	space, eval := testSpace(t, 3, 4)
	if _, err := New(nil, eval, Options{}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := New(space, nil, Options{}); err == nil {
		t.Error("nil evaluator accepted")
	}
	one := &quadEval{space: space, optimum: map[string]int{}, instances: 1}
	if _, err := New(space, one, Options{Budget: 100}); err == nil {
		t.Error("single-instance evaluator accepted")
	}
	for _, budget := range []int{0, -1} {
		if _, err := New(space, eval, Options{Budget: budget}); err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("budget %d: err = %v, want an error naming the budget", budget, err)
		}
	}
	if _, err := New(space, eval, Options{Budget: 1}); err != nil {
		t.Errorf("budget 1: %v", err)
	}
}

func TestCategoricalParams(t *testing.T) {
	// Mix ordered and categorical parameters; optimum on specific values.
	params := []Param{
		{Name: "kind", Values: []string{"alpha", "beta", "gamma", "delta"}},
		ordinalParam("size", 10),
	}
	s, err := NewSpace(params)
	if err != nil {
		t.Fatal(err)
	}
	eval := &catEval{instances: 10}
	tu, err := New(s, eval, Options{Budget: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best["kind"] != "gamma" {
		t.Errorf("best kind = %q, want gamma", res.Best["kind"])
	}
	if idx, _ := strconv.Atoi(res.Best["size"]); idx < 5 || idx > 9 {
		t.Errorf("best size = %v, want 7±2", res.Best["size"])
	}
}

type catEval struct{ instances int }

func (e *catEval) NumInstances() int { return e.instances }

func (e *catEval) Cost(cfg Assignment, instance int) float64 {
	c := 0.0
	if cfg["kind"] != "gamma" {
		c += 10
	}
	size, _ := strconv.Atoi(cfg["size"])
	d := float64(size - 7)
	return c + d*d + 0.1*float64(instance%3)
}

// batchQuadEval wraps quadEval with a CostBatch that scores through the
// same cost function, counting batch calls and verifying every batch
// targets a single instance.
type batchQuadEval struct {
	quadEval
	batchCalls atomic.Int64
}

func (e *batchQuadEval) CostBatch(cfgs []Assignment, instance int) []float64 {
	e.batchCalls.Add(1)
	out := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = e.Cost(cfg, instance)
	}
	return out
}

// TestBatchEvaluatorMatchesPerPair runs the same seeded tune through the
// per-pair path and the batched path: the results must be identical (the
// BatchEvaluator contract says batching is a throughput choice, never a
// semantic one), and the batched run must actually route through
// CostBatch.
func TestBatchEvaluatorMatchesPerPair(t *testing.T) {
	space, plain := testSpace(t, 4, 6)
	tuPlain, err := New(space, plain, Options{Budget: 600, Seed: 11, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tuPlain.Run()
	if err != nil {
		t.Fatal(err)
	}

	_, fresh := testSpace(t, 4, 6)
	batch := &batchQuadEval{quadEval: quadEval{space: fresh.space, optimum: fresh.optimum, instances: fresh.instances}}
	tuBatch, err := New(space, batch, Options{Budget: 600, Seed: 11, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tuBatch.Run()
	if err != nil {
		t.Fatal(err)
	}

	if a.Best.Key() != b.Best.Key() || a.BestCost != b.BestCost || a.Evaluations != b.Evaluations {
		t.Errorf("batched tune diverged from per-pair:\n per-pair best %s cost %v evals %d\n batched  best %s cost %v evals %d",
			a.Best.Key(), a.BestCost, a.Evaluations, b.Best.Key(), b.BestCost, b.Evaluations)
	}
	if batch.batchCalls.Load() == 0 {
		t.Error("BatchEvaluator was never routed through CostBatch")
	}
	if got, want := batch.calls.Load(), int64(b.Evaluations); got != want {
		t.Errorf("cost evaluations %d, want exactly %d (one per charged evaluation)", got, want)
	}
}

// TestSplitEvalBatchMatchesUnsplit is the contract of splitting a race
// step across workers: with Parallelism 1 every instance group is one
// CostBatch call; with 2 and 8 workers a group's candidates are split into
// concurrent sub-batches. The tuner's whole Result — best configuration,
// every candidate's costs as summarised per iteration, the race trace and
// the evaluations charged — must not depend on which of the two happened,
// and the budget must hold either way.
func TestSplitEvalBatchMatchesUnsplit(t *testing.T) {
	const budget = 500
	for _, seed := range []int64{1, 7, 42} {
		var ref *Result
		var refCalls int64
		for _, par := range []int{1, 2, 8} {
			space, fresh := testSpace(t, 5, 6)
			eval := &batchQuadEval{quadEval: quadEval{space: fresh.space, optimum: fresh.optimum, instances: fresh.instances}}
			tuner, err := New(space, eval, Options{Budget: budget, Seed: seed, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tuner.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluations > budget {
				t.Errorf("seed %d parallelism %d: %d evaluations exceed budget %d", seed, par, res.Evaluations, budget)
			}
			if got := eval.calls.Load(); got != int64(res.Evaluations) {
				t.Errorf("seed %d parallelism %d: evaluator scored %d pairs, tuner charged %d", seed, par, got, res.Evaluations)
			}
			if ref == nil {
				ref, refCalls = res, eval.batchCalls.Load()
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("seed %d parallelism %d: result differs from unsplit run:\n split   %+v\n unsplit %+v", seed, par, res, ref)
			}
			if calls := eval.batchCalls.Load(); calls <= refCalls {
				t.Errorf("seed %d parallelism %d: %d CostBatch calls, unsplit made %d — race steps were not split", seed, par, calls, refCalls)
			}
		}
	}
}
