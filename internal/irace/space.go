// Package irace implements iterated racing for automatic configuration
// (Birattari et al., GECCO 2002; López-Ibáñez et al., ORP 2016) — the
// machine-learning tuner the paper uses to recover undisclosed simulator
// parameters from real-hardware measurements.
//
// The algorithm repeats three steps until the evaluation budget is spent:
// sample candidate configurations from per-parameter distributions biased
// toward the surviving elites, race the candidates across benchmark
// instances while eliminating statistically inferior ones (Friedman test
// with a post-hoc comparison to the incumbent), and update the sampling
// distributions from the survivors.
package irace

import (
	"fmt"
	"sort"
	"strings"
)

// Param is one tunable parameter with its finite candidate list. Ordered
// parameters (sizes, latencies) are sampled around the parent's value in
// index space; unordered ones (predictor kind, hash function) are sampled
// categorically.
type Param struct {
	Name    string
	Values  []string
	Ordered bool
}

// Space is the set of tunable parameters.
type Space struct {
	Params []Param
}

// NewSpace builds a Space and validates it: at least one parameter, every
// parameter with at least one value, no duplicate names or values.
func NewSpace(params []Param) (*Space, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("irace: empty parameter space")
	}
	names := make(map[string]bool, len(params))
	for i, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("irace: parameter %d has no name", i)
		}
		if names[p.Name] {
			return nil, fmt.Errorf("irace: duplicate parameter %q", p.Name)
		}
		if len(p.Values) == 0 {
			return nil, fmt.Errorf("irace: parameter %q has no values", p.Name)
		}
		seen := map[string]bool{}
		for _, v := range p.Values {
			if seen[v] {
				return nil, fmt.Errorf("irace: parameter %q has duplicate value %q", p.Name, v)
			}
			seen[v] = true
		}
		names[p.Name] = true
	}
	return &Space{Params: params}, nil
}

// Assignment maps parameter names to chosen values. Assignments returned
// by the tuner always bind every parameter in the space.
type Assignment map[string]string

// Key returns a canonical string for caching and comparison.
func (a Assignment) Key() string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(a[n])
		b.WriteByte(';')
	}
	return b.String()
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// valueIndex returns the index of the assigned value of p, or -1.
func valueIndex(p Param, a Assignment) int {
	v, ok := a[p.Name]
	if !ok {
		return -1
	}
	for i, cand := range p.Values {
		if cand == v {
			return i
		}
	}
	return -1
}

// Validate checks that the assignment binds every parameter to a known
// value.
func (s *Space) Validate(a Assignment) error {
	for _, p := range s.Params {
		if valueIndex(p, a) < 0 {
			return fmt.Errorf("irace: assignment has invalid value %q for %q", a[p.Name], p.Name)
		}
	}
	return nil
}
