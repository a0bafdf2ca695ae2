package sleepscale_test

import (
	"fmt"

	"sleepscale"
)

// ExampleSimulate runs Algorithm 1 over a hand-crafted job schedule: one
// sleep phase at 30 W entered half a second after the queue empties, with a
// 0.1 s wake-up billed at the 250 W active power.
func ExampleSimulate() {
	cfg := sleepscale.SimConfig{
		Frequency:    1,
		FreqExponent: 1,
		ActivePower:  250,
		IdlePower:    250,
		Phases: []sleepscale.SleepPhase{
			{Name: "sleep", Power: 30, WakeLatency: 0.1, EnterAfter: 0.5},
		},
	}
	jobs := []sleepscale.Job{
		{Arrival: 1, Size: 2},
		{Arrival: 2, Size: 1},
		{Arrival: 10, Size: 1},
	}
	res, _ := sleepscale.Simulate(jobs, cfg)
	fmt.Printf("jobs=%d mean response=%.3fs energy=%.0fJ avg power=%.1fW\n",
		res.Jobs, res.MeanResponse, res.Energy, res.AvgPower)
	// Output:
	// jobs=3 mean response=1.767s energy=1477J avg power=133.1W
}

// ExampleModel evaluates the paper's closed forms for a DNS-like server at
// ρ = 0.1 running at f = 0.42 with the deep C6S3 state — the Figure 1(a)
// optimum.
func ExampleModel() {
	prof := sleepscale.Xeon()
	pol := sleepscale.Policy{
		Frequency: 0.42,
		Plan:      sleepscale.SingleState(sleepscale.DeeperSleep),
	}
	mu := sleepscale.DNS().MaxServiceRate()
	m, _ := pol.AnalyticModel(prof, 0.1*mu, mu)
	p, _ := m.MeanPower()
	r, _ := m.MeanResponse()
	fmt.Printf("E[P]=%.1fW  normalized E[R]=%.2f\n", p, mu*r)
	// Output:
	// E[P]=78.6W  normalized E[R]=7.40
}

// ExamplePolicy_Config shows how a symbolic policy resolves against a power
// profile into the concrete numbers the simulator consumes.
func ExamplePolicy_Config() {
	pol := sleepscale.Policy{
		Frequency: 0.5,
		Plan:      sleepscale.SingleState(sleepscale.DeepSleep),
	}
	cfg, _ := pol.Config(sleepscale.Xeon(), 1)
	fmt.Printf("active=%.2fW sleep(%s)=%.1fW wake=%.0fµs\n",
		cfg.ActivePower, cfg.Phases[0].Name, cfg.Phases[0].Power,
		cfg.Phases[0].WakeLatency*1e6)
	// Output:
	// active=136.25W sleep(C6S0(i))=75.5W wake=1000µs
}

// ExampleSequence builds the §4.2 lesson-5 style multi-state walk.
func ExampleSequence() {
	plan := sleepscale.Sequence("",
		sleepscale.PlanPhase{State: sleepscale.OperatingIdle},
		sleepscale.PlanPhase{State: sleepscale.DeeperSleep, Enter: 2.5},
	)
	fmt.Println(plan.Name)
	// Output:
	// C0(i)S0(i)→C6S3
}

// ExampleNewMeanResponseQoS derives the §5.1.1 budget from a peak design
// utilization.
func ExampleNewMeanResponseQoS() {
	mu := sleepscale.DNS().MaxServiceRate() // 1/194ms
	qos, _ := sleepscale.NewMeanResponseQoS(0.8, mu)
	fmt.Printf("budget=%.3fs (normalized µE[R] ≤ %.0f)\n", qos.Budget, qos.Budget*mu)
	// Output:
	// budget=0.970s (normalized µE[R] ≤ 5)
}
