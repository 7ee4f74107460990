package irace

import (
	"math"
	"sort"

	"racesim/internal/stats"
)

// race evaluates candidates instance-by-instance, eliminating statistically
// inferior configurations after each step once firstTest instances have
// been seen. It returns the survivors ordered best-first.
//
// A step is a unit of scheduling, not of synchronisation: a run of steps
// that no statistical test reads in between (batchEnd) goes to the
// evaluator as one batch, so the workers are not drained at a step
// boundary that decides nothing. The pairs charged, the order they are
// charged in, every test and every trace event are those of evaluating
// one step at a time.
func (t *Tuner) race(iteration int, cands []*candidate) ([]*candidate, error) {
	alive := make([]*candidate, len(cands))
	copy(alive, cands)

	// Instance order is shuffled per iteration so early instances do not
	// dominate every race the same way.
	order := t.rng.Perm(t.eval.NumInstances())

	for step := 0; step < len(order); {
		if err := t.opt.ctxErr(); err != nil {
			return nil, err
		}
		end := t.batchEnd(alive, order, step)
		if end == step {
			break // the next step no longer fits in the budget
		}
		if err := t.evalBatch(alive, order[step:end]); err != nil {
			return nil, err
		}
		for ; step < end; step++ {
			t.trace = append(t.trace, RaceEvent{Iteration: iteration, Instance: step + 1, Alive: len(alive)})
		}

		if t.opt.DisableElimination || step < firstTest || len(alive) <= minSurvivors {
			continue
		}
		seen := order[:step]
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
		// Once len(alive) <= minSurvivors the remaining few keep racing to
		// refine their cost estimates, but no further test is made.
		alive = keep
	}

	sort.SliceStable(alive, func(a, b int) bool {
		return t.raceMean(alive[a]) < t.raceMean(alive[b])
	})
	return alive, nil
}

// batchEnd returns the end of the run of race steps, from step on, that is
// evaluated as one batch:
//   - the first firstTest steps, which Run's candidate trim has already
//     made affordable;
//   - once no test can follow (DisableElimination, or len(alive) <=
//     minSurvivors), every remaining step the budget admits. alive can no
//     longer change, so each step's rule — the budget left covers its
//     pending pairs — is worked out in advance, and the run ends exactly
//     where a step-by-step race would stop;
//   - otherwise the one step, if the budget admits it: the test after it
//     may eliminate candidates.
//
// It returns step itself when the next step does not fit.
func (t *Tuner) batchEnd(alive []*candidate, order []int, step int) int {
	if step < firstTest {
		return min(firstTest, len(order))
	}
	tested := !t.opt.DisableElimination && len(alive) > minSurvivors
	left := t.opt.Budget - t.used
	end := step
	for end < len(order) {
		p := t.pending(alive, order[end])
		if left < p {
			break
		}
		left -= p
		end++
		if tested {
			break
		}
	}
	return end
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
