package irace

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"racesim/internal/stats"
)

// synthEval is a deterministic tuning problem on a random space: each value
// of each parameter adds a fixed weight, scaled per instance, plus a
// hash-derived perturbation of the (configuration, instance) pair, rounded
// to a coarse grid so that ranks tie now and then. It needs no simulator.
// Every Cost call is logged, in order.
type synthEval struct {
	space     *Space
	weights   map[string][]float64
	instances int

	mu  sync.Mutex
	log []ask
}

type ask struct {
	key  string
	inst int
	cost float64
}

func newSynthEval(rng *rand.Rand) *synthEval {
	var params []Param
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		vals := make([]string, 2+rng.Intn(4))
		for j := range vals {
			vals[j] = fmt.Sprintf("v%d", j)
		}
		params = append(params, Param{Name: fmt.Sprintf("p%d", i), Values: vals, Ordered: rng.Intn(2) == 0})
	}
	space, err := NewSpace(params)
	if err != nil {
		panic(err)
	}
	e := &synthEval{space: space, weights: map[string][]float64{}, instances: 4 + rng.Intn(9)}
	for _, p := range params {
		w := make([]float64, len(p.Values))
		for j := range w {
			w[j] = rng.Float64() * 4
		}
		e.weights[p.Name] = w
	}
	return e
}

func (e *synthEval) NumInstances() int { return e.instances }

// cost is the pure cost function; Cost logs it.
func (e *synthEval) cost(cfg Assignment, inst int) float64 {
	c := 0.0
	for _, p := range e.space.Params {
		c += e.weights[p.Name][valueIndex(p, cfg)] * (1 + 0.3*math.Sin(float64(inst)+float64(len(p.Values))))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", cfg.Key(), inst)
	c += float64(h.Sum64()%1000) / 500
	return math.Round(c*4) / 4
}

func (e *synthEval) Cost(cfg Assignment, inst int) float64 {
	c := e.cost(cfg, inst)
	e.mu.Lock()
	e.log = append(e.log, ask{cfg.Key(), inst, c})
	e.mu.Unlock()
	return c
}

// TestTunerPropertiesOverSeeds: on random small spaces, budgets and
// parallelism, over 24 seeds, a run charges exactly the (configuration,
// instance) pairs its evaluator was asked for, each once, within the
// budget, and its BestCost is the mean of the best configuration's
// evaluated costs.
func TestTunerPropertiesOverSeeds(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newSynthEval(rng)
		budget := 60 + rng.Intn(340)
		tu, err := New(e.space, e, Options{Budget: budget, Seed: seed, Parallelism: 1 + int(seed%2)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		asked := map[string]bool{}
		for _, a := range e.log {
			pair := fmt.Sprintf("%s@%d", a.key, a.inst)
			if asked[pair] {
				t.Errorf("seed %d: pair %s asked twice", seed, pair)
			}
			asked[pair] = true
		}
		if res.Evaluations > budget || res.Evaluations != len(e.log) {
			t.Errorf("seed %d: %d evaluations charged, %d asked for, budget %d", seed, res.Evaluations, len(e.log), budget)
		}
		sum, n := 0.0, 0
		for inst := 0; inst < e.instances; inst++ {
			if asked[fmt.Sprintf("%s@%d", res.Best.Key(), inst)] {
				sum += e.cost(res.Best, inst)
				n++
			}
		}
		if n == 0 || res.BestCost != sum/float64(n) {
			t.Errorf("seed %d: BestCost %v, the mean of the best's %d evaluated costs is %v", seed, res.BestCost, n, sum/float64(n))
		}
	}
}

// TestRaceKeepsLowestMeanRank drives race directly on fresh candidates over
// 24 seeds and checks every statistical test it makes: each candidate with
// the lowest mean rank over the instances seen so far is still racing at the
// next step, or among the survivors after the last. The steps are read off
// the evaluator's log — at parallelism 1 a step asks each alive candidate
// for one instance, in order.
func TestRaceKeepsLowestMeanRank(t *testing.T) {
	tests := 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newSynthEval(rng)
		nCands := minSurvivors + 2 + rng.Intn(12)
		// Every candidate is paid for up to the first test; after it, the
		// budget may run out mid-race.
		budget := nCands*firstTest + rng.Intn(nCands*e.instances)
		tu, err := New(e.space, e, Options{Budget: budget, Seed: seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		var cands []*candidate
		seen := map[string]bool{}
		for tries := 0; len(cands) < nCands && tries < 1000; tries++ {
			cfg := SampleUniform(e.space, rng)
			if key := cfg.Key(); !seen[key] {
				seen[key] = true
				cands = append(cands, tu.candidateFor(cfg, key))
			}
		}
		if len(cands) <= minSurvivors {
			continue // the space is too small to race
		}
		survivors, err := tu.race(1, cands)
		if err != nil {
			t.Fatal(err)
		}

		// Split the log into steps: a run of asks for one instance.
		var steps [][]ask
		for _, a := range e.log {
			if len(steps) == 0 || steps[len(steps)-1][0].inst != a.inst {
				steps = append(steps, nil)
			}
			steps[len(steps)-1] = append(steps[len(steps)-1], a)
		}
		final := make([]string, len(survivors))
		for i, c := range survivors {
			final[i] = c.key
		}
		costOf := map[string]float64{}
		for _, a := range e.log {
			costOf[fmt.Sprintf("%s@%d", a.key, a.inst)] = a.cost
		}
		for s, step := range steps {
			if s+1 < firstTest || len(step) <= minSurvivors {
				continue
			}
			var matrix [][]float64
			for _, done := range steps[:s+1] {
				row := make([]float64, len(step))
				for j, a := range step {
					row[j] = costOf[fmt.Sprintf("%s@%d", a.key, done[0].inst)]
				}
				matrix = append(matrix, row)
			}
			fr, err := stats.Friedman(matrix, alpha)
			if err != nil {
				t.Fatal(err)
			}
			next := final
			if s+1 < len(steps) {
				next = next[:0:0]
				for _, a := range steps[s+1] {
					next = append(next, a.key)
				}
			}
			best := slices.Min(fr.MeanRanks)
			for j, a := range step {
				if fr.MeanRanks[j] == best && !slices.Contains(next, a.key) {
					t.Errorf("seed %d, step %d: %s has the lowest mean rank and was eliminated", seed, s+1, a.key)
				}
			}
			tests++
		}
	}
	if tests == 0 {
		t.Fatal("no race made a statistical test")
	}
}
