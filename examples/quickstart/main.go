// Quickstart: select the minimum-power (frequency, sleep state) policy for
// a DNS-like server at 30% utilization under the paper's ρ_b = 0.8 QoS, and
// show how the choice shifts as the constraint tightens.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sleepscale"
)

func main() {
	log.SetFlags(0)
	prof := sleepscale.Xeon()
	spec := sleepscale.DNS()
	mu := spec.MaxServiceRate()

	// The workload: Poisson arrivals, exponential service, ρ = 0.3.
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		log.Fatal(err)
	}
	stats, err = stats.AtUtilization(0.3)
	if err != nil {
		log.Fatal(err)
	}
	jobs := stats.Jobs(10000, rand.New(rand.NewSource(1)))

	fmt.Println("DNS-like server at ρ = 0.3 on a Xeon profile")
	fmt.Println()
	fmt.Printf("%-28s  %-18s  %8s  %10s\n", "QoS constraint", "best policy", "E[P] (W)", "µE[R]")
	for _, rhoB := range []float64{0.5, 0.6, 0.8, 0.9} {
		qos, err := sleepscale.NewMeanResponseQoS(rhoB, mu)
		if err != nil {
			log.Fatal(err)
		}
		mgr := sleepscale.NewManager(prof, spec, qos)
		best, err := mgr.Select(jobs, 0.3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ρ_b=%.1f (µE[R] ≤ %5.2f)       %-18v  %8.1f  %10.2f\n",
			rhoB, 1/(1-rhoB), best.Policy, best.Metrics.AvgPower,
			mu*best.Metrics.MeanResponse)
	}

	fmt.Println()
	fmt.Println("Compare with the always-fast baselines at the same load:")
	for _, st := range []sleepscale.State{sleepscale.Sleep, sleepscale.DeepSleep} {
		pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(st)}
		cfg, err := pol.Config(prof, spec.FreqExponent)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sleepscale.Simulate(jobs, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("race-to-halt %-10v        %8.1f W   µE[R]=%.2f\n",
			st, res.AvgPower, mu*res.MeanResponse)
	}
}
