// sensitivity reproduces the paper's Figures 7-8 in miniature: start from
// an accurate model and show how badly CPI error inflates when every
// parameter is allowed to drift a single step from its optimum.
package main

import (
	"fmt"
	"log"

	"racesim/internal/hw"
	"racesim/internal/perturb"
	"racesim/internal/workload"
)

func main() {
	plat, err := hw.Firefly()
	if err != nil {
		log.Fatal(err)
	}

	// Use the board's own configuration as the "perfectly tuned" model —
	// its only error against the board is measurement noise — so the
	// experiment isolates the cost of near-optimum specification errors.
	tuned := plat.A53.TrueConfig()

	fmt.Println("measuring SPEC-like workloads on the reference A53...")
	var ws []perturb.Workload
	for _, p := range workload.Profiles() {
		tr, err := workload.Generate(p, workload.Options{Events: 40_000})
		if err != nil {
			log.Fatal(err)
		}
		c, err := plat.A53.Measure(tr)
		if err != nil {
			log.Fatal(err)
		}
		ws = append(ws, perturb.Workload{Name: p.Name, Trace: tr, Counters: c})
	}

	res, err := perturb.WorstNearOptimum(tuned, ws, perturb.Options{
		Restarts: 2,
		Seed:     7,
		Log:      func(f string, a ...any) { fmt.Printf("  "+f+"\n", a...) },
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nworst one-step configuration deviates in %d parameters\n", res.Deviations)
	fmt.Printf("mean CPI error: %.1f%%\n\n", res.MeanError*100)
	for _, e := range res.Errors {
		fmt.Printf("  %-10s %6.1f%%\n", e.Name, e.Error*100)
	}
	fmt.Println("\nEvery parameter is individually 'reasonable' (one step from truth),")
	fmt.Println("yet the compound model is badly wrong — the paper's argument for")
	fmt.Println("automated hardware validation.")
}
