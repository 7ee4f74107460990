package irace

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"racesim/internal/par"
	"racesim/internal/stats"
)

// stepwiseRace is the race as it was before steps were batched, kept as the
// oracle for race: one evalBatch per instance step, and a step's pairs split
// into Parallelism equal sub-batches.
func (t *Tuner) stepwiseRace(iteration int, cands []*candidate) ([]*candidate, error) {
	alive := make([]*candidate, len(cands))
	copy(alive, cands)
	order := t.rng.Perm(t.eval.NumInstances())

	for step, inst := range order {
		if err := t.opt.ctxErr(); err != nil {
			return nil, err
		}
		if step >= firstTest && t.opt.Budget-t.used < t.pending(alive, inst) {
			break
		}
		t.stepwiseEvalBatch(alive, inst)
		t.trace = append(t.trace, RaceEvent{Iteration: iteration, Instance: step + 1, Alive: len(alive)})

		if t.opt.DisableElimination {
			continue
		}
		if step+1 < firstTest || len(alive) <= minSurvivors {
			continue
		}
		seen := order[:step+1]
		matrix := make([][]float64, 0, len(seen))
		for _, i := range seen {
			row := make([]float64, len(alive))
			for j, c := range alive {
				row[j] = c.costs[i]
			}
			matrix = append(matrix, row)
		}
		fr, err := stats.Friedman(matrix, alpha)
		if err != nil {
			return nil, err
		}
		if fr.PValue >= alpha {
			continue
		}
		bestJ := 0
		for j := range fr.MeanRanks {
			if fr.MeanRanks[j] < fr.MeanRanks[bestJ] {
				bestJ = j
			}
		}
		n := float64(len(seen))
		var keep []*candidate
		for j, c := range alive {
			diff := (fr.MeanRanks[j] - fr.MeanRanks[bestJ]) * n
			if j == bestJ || diff <= fr.CriticalDiff {
				keep = append(keep, c)
			}
		}
		if len(keep) < minSurvivors {
			idx := make([]int, len(alive))
			for j := range idx {
				idx[j] = j
			}
			sort.Slice(idx, func(a, b int) bool {
				return fr.MeanRanks[idx[a]] < fr.MeanRanks[idx[b]]
			})
			keep = keep[:0]
			for _, j := range idx[:minSurvivors] {
				keep = append(keep, alive[j])
			}
		}
		alive = keep
	}

	sort.SliceStable(alive, func(a, b int) bool {
		return t.raceMean(alive[a]) < t.raceMean(alive[b])
	})
	return alive, nil
}

// stepwiseEvalBatch scores one instance step the old way: the budget trim,
// then ceil-equal sub-batches, one per worker.
func (t *Tuner) stepwiseEvalBatch(cands []*candidate, inst int) {
	var jobs []*candidate
	for _, c := range cands {
		if math.IsNaN(c.costs[inst]) {
			jobs = append(jobs, c)
		}
	}
	if left := t.opt.Budget - t.used; len(jobs) > left {
		jobs = jobs[:max(left, 0)]
	}
	if len(jobs) == 0 {
		return
	}
	t.used += len(jobs)
	size := (len(jobs) + t.opt.Parallelism - 1) / t.opt.Parallelism
	var subs [][]*candidate
	for lo := 0; lo < len(jobs); lo += size {
		subs = append(subs, jobs[lo:min(lo+size, len(jobs))])
	}
	be, batched := t.eval.(BatchEvaluator)
	_ = par.ForEach(len(subs), t.opt.Parallelism, func(k int) error {
		sub := subs[k]
		if !batched {
			for _, c := range sub {
				c.costs[inst] = t.eval.Cost(c.cfg, inst)
			}
			return nil
		}
		cfgs := make([]Assignment, len(sub))
		for j, c := range sub {
			cfgs[j] = c.cfg
		}
		for j, cost := range be.CostBatch(cfgs, inst) {
			sub[j].costs[inst] = cost
		}
		return nil
	})
}

// batchSynthEval is synthEval behind a BatchEvaluator: CostBatch asks Cost
// for each configuration, so every pair is logged either way.
type batchSynthEval struct{ *synthEval }

func (e batchSynthEval) CostBatch(cfgs []Assignment, inst int) []float64 {
	out := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = e.Cost(cfg, inst)
	}
	return out
}

// pairs is the evaluator's log as "key@instance" strings, in call order.
func (e *synthEval) pairs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.log))
	for i, a := range e.log {
		out[i] = fmt.Sprintf("%s@%d", a.key, a.inst)
	}
	return out
}

// TestRaceMatchesStepwiseReference holds the batched race to the
// step-at-a-time one it replaced: over seeds, Parallelism 1, 2 and 8,
// elimination on and off, a plain and a batch evaluator and a spread of
// budgets, Run's Result is deep-equal and the evaluator is asked for the
// same multiset of (configuration, instance) pairs — in the same order at
// Parallelism 1. synthEval rounds its costs to a quarter, so ranks tie;
// the test checks that they did. It also checks that the budgets cover the
// three places a race can run out: inside the first firstTest steps, at a
// tested step, and in the untested tail.
func TestRaceMatchesStepwiseReference(t *testing.T) {
	var runs, ties int
	stops := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		// More instances than newSynthEval draws, so that budgets run out
		// before a race has seen them all, and every third problem flat, so
		// that a race may still be testing when they do.
		n := 6 + 2*int(seed)
		newEval := func() *synthEval { return newFlatSynthEval(seed, n, seed%3 == 0) }
		budgets := []int{2*firstTest + int(seed), 6 * n, 15 * n, 40 * n}
		for _, budget := range budgets {
			for _, disable := range []bool{false, true} {
				for _, parallelism := range []int{1, 2, 8} {
					for _, batched := range []bool{false, true} {
						name := fmt.Sprintf("seed %d budget %d disable %v parallelism %d batched %v", seed, budget, disable, parallelism, batched)
						opt := Options{Budget: budget, Seed: seed, Parallelism: parallelism, DisableElimination: disable}
						tune := func(stepwise bool) (*Result, *synthEval, error) {
							e := newEval()
							var ev Evaluator = e
							if batched {
								ev = batchSynthEval{e}
							}
							tu, err := New(e.space, ev, opt)
							if err != nil {
								t.Fatal(err)
							}
							if stepwise {
								res, err := tu.run(tu.stepwiseRace)
								return res, e, err
							}
							res, err := tu.Run()
							return res, e, err
						}
						got, gotEval, gotErr := tune(false)
						want, wantEval, wantErr := tune(true)
						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
						}
						if wantErr != nil {
							continue
						}
						runs++
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: result differs from the step-at-a-time race:\n batched  %+v\n stepwise %+v", name, got, want)
						}
						gotPairs, wantPairs := gotEval.pairs(), wantEval.pairs()
						if parallelism > 1 {
							slices.Sort(gotPairs)
							slices.Sort(wantPairs)
						}
						if !slices.Equal(gotPairs, wantPairs) {
							t.Errorf("%s: charged pairs differ from the step-at-a-time race (%d vs %d)", name, len(gotPairs), len(wantPairs))
						}
						if parallelism == 1 && !batched {
							ties += countTies(wantEval)
							stops[raceStop(want, n, disable)]++
						}
					}
				}
			}
		}
	}
	if runs == 0 || ties == 0 {
		t.Fatalf("%d runs compared, %d tied costs seen: the comparison tested nothing", runs, ties)
	}
	t.Logf("%d runs compared; where the last race stopped (Parallelism 1, plain evaluator): %v", runs, stops)
	for _, where := range []string{"first steps", "tested step", "tail"} {
		if stops[where] == 0 {
			t.Errorf("no budget ran out in the %s of a race (stops: %v)", where, stops)
		}
	}
}

// newFlatSynthEval is newSynthEval(seed) over n instances; flat zeroes the
// configuration's weights, so costs are the tie-prone perturbation alone
// and the Friedman test seldom eliminates.
func newFlatSynthEval(seed int64, n int, flat bool) *synthEval {
	e := newSynthEval(rand.New(rand.NewSource(seed)))
	e.instances = n
	if flat {
		for _, w := range e.weights {
			clear(w)
		}
	}
	return e
}

// countTies counts the logged pairs whose cost equals that of an earlier
// pair on the same instance.
func countTies(e *synthEval) int {
	seen := map[string]bool{}
	n := 0
	for _, a := range e.log {
		k := fmt.Sprintf("%d|%v", a.inst, a.cost)
		if seen[k] {
			n++
		}
		seen[k] = true
	}
	return n
}

// raceStop says where the last race of a run stopped, read off its trace
// and its survivors: "exhausted" when it saw every instance, else the phase
// whose next step the budget could not pay for.
func raceStop(res *Result, instances int, disable bool) string {
	last := res.RaceTrace[len(res.RaceTrace)-1]
	survivors := res.Iterations[len(res.Iterations)-1].Survivors
	switch {
	case last.Instance == instances:
		return "exhausted"
	case last.Instance <= firstTest:
		return "first steps"
	case disable || survivors <= minSurvivors:
		return "tail"
	default:
		return "tested step"
	}
}

// cancellingEval cancels a context on its at-th Cost call and counts every
// call.
type cancellingEval struct {
	Evaluator
	at     int64
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (e *cancellingEval) Cost(cfg Assignment, inst int) float64 {
	if e.calls.Add(1) == e.at {
		e.cancel()
	}
	return e.Evaluator.Cost(cfg, inst)
}

// TestCancelDuringMergedTailBatch cancels a race without elimination inside
// its tail — the steps after the first firstTest, evaluated as one batch —
// and checks that the race stops with the context's error having scored at
// most one pair per worker besides the cancelling one.
func TestCancelDuringMergedTailBatch(t *testing.T) {
	const nCands, instances = 10, 14
	for _, parallelism := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(3))
		synth := newSynthEval(rng)
		synth.instances = instances
		ctx, cancel := context.WithCancel(context.Background())
		e := &cancellingEval{Evaluator: synth, at: firstTest*nCands + 7, cancel: cancel}
		tu, err := New(synth.space, e, Options{Budget: nCands * instances, Seed: 3, Parallelism: parallelism, DisableElimination: true, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		var cands []*candidate
		seen := map[string]bool{}
		for tries := 0; len(cands) < nCands && tries < 1000; tries++ {
			cfg := SampleUniform(synth.space, rng)
			if key := cfg.Key(); !seen[key] {
				seen[key] = true
				cands = append(cands, tu.candidateFor(cfg, key))
			}
		}
		if len(cands) < nCands {
			t.Fatalf("space too small for %d candidates", nCands)
		}
		_, err = tu.race(1, cands)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: race returned %v, want context.Canceled", parallelism, err)
		}
		if got, bound := e.calls.Load(), e.at+int64(parallelism-1); got > bound {
			t.Errorf("parallelism %d: %d pairs scored, want at most %d (the cancelling pair plus one per other worker)", parallelism, got, bound)
		}
	}
}

// TestCancelDuringFinalizeReturnsNoResult cancels a run while it evaluates
// the winner on its remaining instances: Run must return the context's
// error, not a Result averaged over instances never evaluated.
func TestCancelDuringFinalizeReturnsNoResult(t *testing.T) {
	const seed = 5
	// Find a budget whose finalize scores at least two pairs: on a flat
	// problem the last race is still testing when the budget runs out.
	budget, raced := 0, int64(0)
	for b := 100; b < 2000 && budget == 0; b += 7 {
		e := newFlatSynthEval(seed, 30, true)
		tu, err := New(e.space, e, Options{Budget: b, Seed: seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := tu.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r := int64(ref.Iterations[len(ref.Iterations)-1].Evaluations); int64(ref.Evaluations)-r >= 2 {
			budget, raced = b, r
		}
	}
	if budget == 0 {
		t.Fatal("no budget leaves the finalize two pairs to score")
	}

	synth := newFlatSynthEval(seed, 30, true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := &cancellingEval{Evaluator: synth, at: raced + 1, cancel: cancel}
	tu, err := New(synth.space, e, Options{Budget: budget, Seed: seed, Parallelism: 1, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.Run()
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("budget %d: Run cancelled in finalize returned (%v, %v), want (nil, context.Canceled)", budget, res, err)
	}
	if got := e.calls.Load(); got != raced+1 {
		t.Errorf("budget %d: %d pairs scored, want %d: finalize went on past the cancellation", budget, got, raced+1)
	}
}
