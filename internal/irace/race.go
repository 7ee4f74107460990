package irace

import (
	"math"
	"sort"

	"racesim/internal/stats"
)

// race evaluates candidates instance-by-instance, eliminating statistically
// inferior configurations after each step once firstTest instances have
// been seen. It returns the survivors ordered best-first.
func (t *Tuner) race(iteration int, cands []*candidate) ([]*candidate, error) {
	alive := make([]*candidate, len(cands))
	copy(alive, cands)

	// Instance order is shuffled per iteration so early instances do not
	// dominate every race the same way.
	order := t.rng.Perm(t.eval.NumInstances())

	for step, inst := range order {
		if err := t.opt.ctxErr(); err != nil {
			return nil, err
		}
		// Stop once the next instance step no longer fits in the budget.
		// During the first firstTest steps affordability is guaranteed by
		// the candidate trim in Run, so every candidate reaches the first
		// statistical test fully evaluated.
		if step >= firstTest && t.opt.Budget-t.used < t.pending(alive, inst) {
			break
		}
		t.evalBatch(alive, []int{inst})
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
		// Post hoc: drop candidates whose rank sum is worse than the best
		// by more than the critical difference.
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
			// The post-hoc test was sharper than the survivor floor:
			// keep the best minSurvivors by mean rank instead.
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
		if len(alive) <= minSurvivors {
			// Keep racing the remaining few to refine their cost
			// estimates, but skip further statistical tests.
			continue
		}
	}

	sort.SliceStable(alive, func(a, b int) bool {
		return t.raceMean(alive[a]) < t.raceMean(alive[b])
	})
	return alive, nil
}

// raceMean is the mean over evaluated instances (used for final ordering).
func (t *Tuner) raceMean(c *candidate) float64 {
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
