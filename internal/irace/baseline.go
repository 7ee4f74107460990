package irace

import (
	"math"
	"math/rand"
)

// RandomSearch is the baseline tuner the paper's racing approach is
// measured against in the ablation benches: uniform configuration sampling
// with the same evaluation budget, each sampled configuration evaluated on
// every instance, no elimination and no distribution updates.
func RandomSearch(space *Space, eval Evaluator, opt Options) (*Result, error) {
	t, err := New(space, eval, opt)
	if err != nil {
		return nil, err
	}
	nInst := eval.NumInstances()
	nConfigs := t.opt.Budget / nInst
	if nConfigs < 1 {
		nConfigs = 1
	}
	res := &Result{BestCost: math.Inf(1)}
	all := make([]int, nInst)
	for i := range all {
		all[i] = i
	}
	seen := map[string]bool{}
	for i := 0; i < nConfigs; i++ {
		cfg := t.sample(nil, 0)
		key := cfg.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		c := t.candidateFor(cfg, key)
		if err := t.evalBatch([]*candidate{c}, all); err != nil {
			return nil, err
		}
		if m := t.meanCost(c); m < res.BestCost {
			res.BestCost = m
			res.Best = cfg.Clone()
		}
	}
	res.Evaluations = t.used
	return res, nil
}

// SampleUniform draws one uniform-random assignment from the space.
func SampleUniform(space *Space, rng *rand.Rand) Assignment {
	cfg := make(Assignment, len(space.Params))
	for _, p := range space.Params {
		cfg[p.Name] = p.Values[rng.Intn(len(p.Values))]
	}
	return cfg
}
