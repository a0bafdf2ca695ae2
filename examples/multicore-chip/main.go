// Multicore-chip: the paper's §7 future-work direction — SleepScale-style
// states on a k-core chip with a shared platform. Shows how one busy core
// pins the platform awake, why per-core C6 still pays, and how a guarded
// (break-even) timeout tames the deep-sleep wake penalty.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"sleepscale"
)

func main() {
	log.SetFlags(0)
	const (
		mu     = 5.0 // jobs/second per core at f=1
		lambda = 3.5 // aggregate arrivals/second
		nJobs  = 60000
	)
	rng := rand.New(rand.NewSource(1))
	jobs := make([]sleepscale.Job, nJobs)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / lambda
		jobs[i] = sleepscale.Job{Arrival: tnow, Size: rng.ExpFloat64() / mu}
	}

	chip := func(cores int, coreSleep []sleepscale.MultiCorePhase) sleepscale.MultiCoreConfig {
		return sleepscale.MultiCoreConfig{
			Cores:               cores,
			Frequency:           1,
			FreqExponent:        1,
			CPUActivePower:      130.0 / 4, // a quarter of the socket's 130 W
			CoreSleep:           coreSleep,
			PlatformActivePower: 120,
			PlatformIdlePower:   60.5,
			PlatformSleepPower:  13.1,
			PlatformSleepAfter:  2,
			PlatformWakeLatency: 1,
		}
	}
	c6 := []sleepscale.MultiCorePhase{
		{Name: "C6", Power: 15.0 / 4, WakeLatency: 1e-3, EnterAfter: 0},
	}
	noSleep := []sleepscale.MultiCorePhase(nil)

	fmt.Printf("aggregate load λ=%.1f/s, per-core µ=%.1f/s, %d jobs\n\n", lambda, mu, nJobs)
	fmt.Printf("%-28s  %8s  %10s  %12s\n", "configuration", "cores", "E[R] (s)", "E[P] (W)")
	for _, tc := range []struct {
		name  string
		cores int
		sleep []sleepscale.MultiCorePhase
	}{
		{"1 core, no core sleep", 1, noSleep},
		{"1 core, per-core C6", 1, c6},
		{"4 cores, no core sleep", 4, noSleep},
		{"4 cores, per-core C6", 4, c6},
	} {
		res, err := sleepscale.SimulateMultiCore(jobs, chip(tc.cores, tc.sleep))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s  %8d  %10.4f  %12.2f\n", tc.name, tc.cores, res.MeanResponse, res.AvgPower)
	}

	// Validate the queueing core against the M/M/k closed form.
	want, err := sleepscale.MMkMeanResponse(4, lambda, mu)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nM/M/4 closed form E[R] = %.4f s (simulated above should be close)\n", want)

	// Guarded deep sleep on a single-core server with bursty arrivals.
	fmt.Println("\nguarded C6S3 timeout on bursty arrivals (single server, ρ=0.1):")
	prof := sleepscale.Xeon()
	f := 0.5
	tau, err := sleepscale.BreakEvenDelay(prof, f, sleepscale.OperatingIdle, sleepscale.DeeperSleep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("break-even idle time at f=%.1f: %.2f s\n", f, tau)

	spec := sleepscale.Spec{
		Name:             "bursty",
		InterArrivalMean: 0.194 / 0.1,
		InterArrivalCV:   4,
		ServiceMean:      0.194,
		ServiceCV:        1,
		FreqExponent:     1,
	}
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		log.Fatal(err)
	}
	bjobs := stats.Jobs(40000, rand.New(rand.NewSource(2)))
	guarded, err := sleepscale.GuardedPlan(prof, f, sleepscale.OperatingIdle, sleepscale.DeeperSleep)
	if err != nil {
		log.Fatal(err)
	}
	plans := []sleepscale.SleepPlan{
		sleepscale.SingleState(sleepscale.OperatingIdle),
		sleepscale.SingleState(sleepscale.DeeperSleep),
		guarded,
	}
	best := math.Inf(1)
	for _, plan := range plans {
		pol := sleepscale.Policy{Frequency: f, Plan: plan}
		cfg, err := pol.Config(prof, 1)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sleepscale.Simulate(bjobs, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-26s  E[P]=%7.2f W   E[R]=%.3f s\n", plan.Name, res.AvgPower, res.MeanResponse)
		if res.AvgPower < best {
			best = res.AvgPower
		}
	}
}
