// Policy-explorer: exhaustively characterize the (frequency, sleep state)
// space for a custom workload and print the Pareto frontier of response time
// versus power — the raw material behind the paper's Figure 1 bowls.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"sleepscale"
)

func main() {
	log.SetFlags(0)
	var (
		serviceMean = flag.Float64("service-mean", 0.05, "mean job size in seconds at f=1")
		serviceCV   = flag.Float64("service-cv", 1.5, "service-time coefficient of variation")
		arrivalCV   = flag.Float64("arrival-cv", 2.0, "inter-arrival coefficient of variation")
		rho         = flag.Float64("rho", 0.25, "utilization")
		jobs        = flag.Int("jobs", 20000, "evaluation stream length")
		seed        = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	spec := sleepscale.Spec{
		Name:             "custom",
		InterArrivalMean: *serviceMean / *rho,
		InterArrivalCV:   *arrivalCV,
		ServiceMean:      *serviceMean,
		ServiceCV:        *serviceCV,
		FreqExponent:     1,
	}
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		log.Fatal(err)
	}
	stream := stats.Jobs(*jobs, rand.New(rand.NewSource(*seed)))
	prof := sleepscale.Xeon()
	mu := spec.MaxServiceRate()

	type entry struct {
		pol  sleepscale.Policy
		resp float64 // µE[R]
		pow  float64
	}
	var all []entry
	space := sleepscale.DefaultSpace()
	space.FreqStep = 0.02
	for _, plan := range space.Plans {
		for _, f := range space.Frequencies(*rho, spec.FreqExponent) {
			pol := sleepscale.Policy{Frequency: f, Plan: plan}
			cfg, err := pol.Config(prof, spec.FreqExponent)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sleepscale.Simulate(stream, cfg)
			if err != nil {
				log.Fatal(err)
			}
			all = append(all, entry{pol, mu * res.MeanResponse, res.AvgPower})
		}
	}

	// Pareto frontier: no other policy is both faster and cheaper.
	sort.Slice(all, func(i, j int) bool { return all[i].resp < all[j].resp })
	var frontier []entry
	bestPower := 1e18
	for _, e := range all {
		if e.pow < bestPower {
			frontier = append(frontier, e)
			bestPower = e.pow
		}
	}

	fmt.Printf("custom workload: service %.3gs (Cv %.2g), arrivals Cv %.2g, ρ=%.2f\n",
		*serviceMean, *serviceCV, *arrivalCV, *rho)
	fmt.Printf("%d policies evaluated, %d on the Pareto frontier:\n\n",
		len(all), len(frontier))
	fmt.Printf("%-22s  %10s  %9s\n", "policy", "µE[R]", "E[P] (W)")
	for _, e := range frontier {
		fmt.Printf("%-22v  %10.2f  %9.1f\n", e.pol, e.resp, e.pow)
	}
}
