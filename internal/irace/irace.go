package irace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"racesim/internal/par"
)

// Evaluator supplies the cost function: the performance-prediction error of
// a simulator configuration on one benchmark instance. Cost must be
// deterministic for a (configuration, instance) pair; the tuner caches and
// races on it. Implementations must be safe for concurrent calls.
type Evaluator interface {
	// Cost returns the error metric for cfg on instance (lower is
	// better).
	Cost(cfg Assignment, instance int) float64
	// NumInstances returns how many benchmark instances exist.
	NumInstances() int
}

// BatchEvaluator is an optional Evaluator extension: CostBatch scores many
// configurations on one instance in a single call, so an implementation
// pays its per-call costs (for a simulator: preparing the instance's
// trace, one submission to its result cache) once per call. Element i
// of the result must be exactly what Cost(cfgs[i], instance) would return,
// so the tuner's races and eliminations are unchanged by which method
// scored a pair.
type BatchEvaluator interface {
	Evaluator
	// CostBatch returns the error metric for each configuration on
	// instance, aligned with cfgs.
	CostBatch(cfgs []Assignment, instance int) []float64
}

// The race's fixed settings.
const (
	// firstTest is how many instances are seen before the first
	// statistical elimination.
	firstTest = 5
	// alpha is the elimination significance level.
	alpha = 0.05
	// minSurvivors stops eliminating once this many candidates remain.
	minSurvivors = 4
	// numElites is how many survivors carry over between iterations.
	numElites = 4
)

// Options tunes the tuner itself. A zero Parallelism or Log selects its
// default; the Budget has none.
type Options struct {
	// Budget is the maximum number of (configuration, instance)
	// evaluations, and must be positive; the paper uses up to 100k trials.
	Budget int
	// Seed makes runs reproducible.
	Seed int64
	// Parallelism bounds concurrent Cost calls (default GOMAXPROCS).
	Parallelism int
	// DisableElimination turns off the Friedman-test racing: every
	// candidate is evaluated on every instance of a race. This is the
	// ablation arm for measuring what statistical elimination buys.
	DisableElimination bool
	// Context, when non-nil, cancels the run: the tuner checks it before
	// each iteration and each batch of a race, and its workers stop taking
	// pairs once it is cancelled, so cancellation latency is bounded by one
	// evaluator call per worker — one pair, or at Parallelism 1 one
	// instance group of a BatchEvaluator — not a batch or the whole budget.
	// A cancelled run returns the context's error, never a Result.
	Context context.Context
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// ctxErr is the tuner's cancellation probe (nil Context never cancels).
func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// RaceEvent records the number of surviving configurations after an
// instance step of a race — the data behind the paper's Figure 2.
type RaceEvent struct {
	Iteration int
	Instance  int
	Alive     int
}

// IterationSummary describes one sample-race-update round.
type IterationSummary struct {
	Iteration   int
	Sampled     int
	Survivors   int
	BestCost    float64
	Evaluations int
}

// Result is the tuner's output.
type Result struct {
	Best        Assignment
	BestCost    float64 // mean cost over all instances
	Evaluations int
	Iterations  []IterationSummary
	RaceTrace   []RaceEvent
}

// candidate pairs an assignment with its per-instance costs.
type candidate struct {
	cfg   Assignment
	key   string
	costs []float64 // indexed by instance; NaN = not yet evaluated
}

// Tuner runs iterated racing over a space against an evaluator.
type Tuner struct {
	space *Space
	eval  Evaluator
	opt   Options
	rng   *rand.Rand

	cache map[string][]float64 // key -> per-instance costs
	used  int
	trace []RaceEvent
}

// New builds a tuner.
func New(space *Space, eval Evaluator, opt Options) (*Tuner, error) {
	if space == nil || eval == nil {
		return nil, fmt.Errorf("irace: nil space or evaluator")
	}
	if eval.NumInstances() < 2 {
		return nil, fmt.Errorf("irace: need >= 2 instances, got %d", eval.NumInstances())
	}
	if opt.Budget <= 0 {
		return nil, fmt.Errorf("irace: budget %d is not positive", opt.Budget)
	}
	o := opt.withDefaults()
	return &Tuner{
		space: space,
		eval:  eval,
		opt:   o,
		rng:   rand.New(rand.NewSource(o.Seed)),
		cache: make(map[string][]float64),
	}, nil
}

// Run executes the iterated race and returns the best configuration found.
func (t *Tuner) Run() (*Result, error) { return t.run(t.race) }

// run is Run with the race made a parameter, so a test can hold the tuner
// to a reference race.
func (t *Tuner) run(race func(iteration int, cands []*candidate) ([]*candidate, error)) (*Result, error) {
	nParam := len(t.space.Params)
	iterations := 2 + int(math.Log2(float64(nParam)))
	res := &Result{}

	var elites []*candidate
	for j := 1; j <= iterations && t.used < t.opt.Budget; j++ {
		if err := t.opt.ctxErr(); err != nil {
			return nil, err
		}
		left := t.opt.Budget - t.used
		// Racing needs at least two candidates seen on firstTest instances;
		// with less budget than that left, stop rather than overspend.
		if left < 2*firstTest {
			break
		}
		iterBudget := left / (iterations - j + 1)
		perConfig := firstTest + 4
		nNew := iterBudget / perConfig
		if nNew < minSurvivors+2 {
			nNew = minSurvivors + 2
		}

		frac := float64(j-1) / float64(iterations)
		cands := make([]*candidate, 0, nNew+len(elites))
		cands = append(cands, elites...)
		seen := map[string]bool{}
		for _, e := range elites {
			seen[e.key] = true
		}
		for tries := 0; len(cands) < nNew+len(elites) && tries < nNew*20; tries++ {
			cfg := t.sample(elites, frac)
			key := cfg.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			cands = append(cands, t.candidateFor(cfg, key))
		}
		// Affordability (the firstTest guarantee): every raced candidate
		// must be evaluable on the first firstTest instances without
		// exceeding the budget, so trim the newest samples first (elites
		// sit at the front and their early instances are often already
		// paid for). This keeps Evaluations <= Budget exact instead of
		// overshooting by O(candidates) on the final race.
		if max := left / firstTest; len(cands) > max {
			cands = cands[:max]
		}

		survivors, err := race(j, cands)
		if err != nil {
			return nil, err
		}
		if len(survivors) == 0 {
			return nil, fmt.Errorf("irace: race %d eliminated every candidate", j)
		}
		elites = survivors[:min(numElites, len(survivors))]
		best := elites[0]
		res.Iterations = append(res.Iterations, IterationSummary{
			Iteration:   j,
			Sampled:     len(cands),
			Survivors:   len(survivors),
			BestCost:    t.meanCost(best),
			Evaluations: t.used,
		})
		t.opt.Log("irace: iteration %d/%d: %d candidates, %d survive, best cost %.4f, %d/%d evals",
			j, iterations, len(cands), len(survivors), t.meanCost(best), t.used, t.opt.Budget)
	}

	if len(elites) == 0 {
		return nil, fmt.Errorf("irace: no configuration evaluated (budget %d too small)", t.opt.Budget)
	}
	// Finalize: evaluate the best configuration on all instances.
	best := elites[0]
	if err := t.completeAll(best); err != nil {
		return nil, err
	}
	res.Best = best.cfg.Clone()
	res.BestCost = t.meanCost(best)
	res.Evaluations = t.used
	res.RaceTrace = t.trace
	return res, nil
}

func (t *Tuner) candidateFor(cfg Assignment, key string) *candidate {
	costs, ok := t.cache[key]
	if !ok {
		costs = make([]float64, t.eval.NumInstances())
		for i := range costs {
			costs[i] = math.NaN()
		}
		t.cache[key] = costs
	}
	return &candidate{cfg: cfg, key: key, costs: costs}
}

// meanCost averages the evaluated instances of c.
func (t *Tuner) meanCost(c *candidate) float64 {
	sum, n := 0.0, 0
	for _, v := range c.costs {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// completeAll evaluates any remaining instances for c (within budget).
func (t *Tuner) completeAll(c *candidate) error {
	var missing []int
	for i, v := range c.costs {
		if math.IsNaN(v) {
			missing = append(missing, i)
		}
	}
	if left := t.opt.Budget - t.used; len(missing) > left {
		// Finalizing the winner must not overspend either; the mean cost
		// is taken over whatever instances the budget covered.
		if left < 0 {
			left = 0
		}
		missing = missing[:left]
	}
	return t.evalBatch([]*candidate{c}, missing)
}

// pending counts the evaluations one instance step would charge: the alive
// candidates whose cost on inst is still unknown.
func (t *Tuner) pending(cands []*candidate, inst int) int {
	n := 0
	for _, c := range cands {
		if math.IsNaN(c.costs[inst]) {
			n++
		}
	}
	return n
}

// evalBatch evaluates every (candidate, instance) pair that is still NaN,
// in parallel, and charges the budget. The pairs are taken instance by
// instance, in the order given, and candidate by candidate within one. The
// job list is trimmed to the remaining budget as a final invariant —
// callers size their batches so the trim never splits an instance step
// that a statistical test will read, but t.used <= Budget must hold
// unconditionally. A cancelled Context stops the dispatch and is returned:
// the pairs not scored are left NaN although charged, so the caller must
// discard the run.
func (t *Tuner) evalBatch(cands []*candidate, instances []int) error {
	type job struct {
		c    *candidate
		inst int
	}
	var jobs []job
	for _, inst := range instances {
		for _, c := range cands {
			if math.IsNaN(c.costs[inst]) {
				jobs = append(jobs, job{c, inst})
			}
		}
	}
	if left := t.opt.Budget - t.used; len(jobs) > left {
		if left < 0 {
			left = 0
		}
		jobs = jobs[:left]
	}
	if len(jobs) == 0 {
		return nil
	}
	t.used += len(jobs)

	// A task is one pair, taken by whichever worker is free, so a slow pair
	// holds up one worker and never a fixed share of the batch. With one
	// worker, a BatchEvaluator instead scores each instance's pairs in one
	// CostBatch call.
	be, batched := t.eval.(BatchEvaluator)
	var tasks [][]job
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for batched && t.opt.Parallelism == 1 && hi < len(jobs) && jobs[hi].inst == jobs[lo].inst {
			hi++
		}
		tasks = append(tasks, jobs[lo:hi])
		lo = hi
	}
	// The callback never fails, so only cancellation is reported.
	return par.ForEachCtx(t.opt.Context, len(tasks), t.opt.Parallelism, func(k int) error {
		task := tasks[k]
		inst := task[0].inst
		if !batched {
			task[0].c.costs[inst] = t.eval.Cost(task[0].c.cfg, inst)
			return nil
		}
		cfgs := make([]Assignment, len(task))
		for j, jb := range task {
			cfgs[j] = jb.c.cfg
		}
		for j, cost := range be.CostBatch(cfgs, inst) {
			task[j].c.costs[inst] = cost
		}
		return nil
	})
}
