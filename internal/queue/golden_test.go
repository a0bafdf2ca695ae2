package queue_test

import (
	"math"
	"math/rand"
	"testing"

	"sleepscale/internal/dist"
	"sleepscale/internal/queue"
)

// goldenJobs builds the fixed-seed workload for the golden run: Cv = 1.9
// hyperexponential inter-arrivals at ρ = 0.3 with exponential 194 ms jobs —
// a DNS-like stream with enough idle gaps to exercise every sleep phase.
func goldenJobs(t *testing.T) []queue.Job {
	t.Helper()
	inter, err := dist.NewHyperExp2(194e-3/0.3, 1.9)
	if err != nil {
		t.Fatal(err)
	}
	size, err := dist.NewExponentialMean(194e-3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2014))
	jobs := make([]queue.Job, 5000)
	tnow := 0.0
	for i := range jobs {
		tnow += inter.Sample(rng)
		jobs[i] = queue.Job{Arrival: tnow, Size: size.Sample(rng)}
	}
	return jobs
}

func goldenConfig() queue.Config {
	return queue.Config{
		Frequency:    0.7,
		FreqExponent: 1,
		ActivePower:  200,
		IdlePower:    140,
		Phases: []queue.SleepPhase{
			{Name: "C6S0(i)", Power: 80, WakeLatency: 1e-3, EnterAfter: 0},
			{Name: "C6S3", Power: 15, WakeLatency: 5, EnterAfter: 2},
		},
	}
}

// TestSimulateGolden pins the exact semantics of the hot simulation loop: a
// fixed-seed workload must reproduce this checked-in snapshot, so future
// speed-oriented refactors of Engine/Simulate cannot silently change
// results. If a deliberate semantic change invalidates the snapshot, rerun
// with -run Golden -v and copy the logged values in.
func TestSimulateGolden(t *testing.T) {
	res, err := queue.Simulate(goldenJobs(t), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"Jobs":                float64(res.Jobs),
		"MeanResponse":        res.MeanResponse,
		"ResponseP95":         res.ResponseP95,
		"ResponseP99":         res.ResponseP99,
		"AvgPower":            res.AvgPower,
		"Energy":              res.Energy,
		"Duration":            res.Duration,
		"BusyTime":            res.BusyTime,
		"WakeTime":            res.WakeTime,
		"IdleTime":            res.IdleTime,
		"Wakes":               float64(res.Wakes),
		"MeasuredUtilization": res.MeasuredUtilization,
		"Residency[idle]":     res.Residency[queue.PreSleepBucket],
		"Residency[C6S0(i)]":  res.Residency["C6S0(i)"],
		"Residency[C6S3]":     res.Residency["C6S3"],
	}
	for k, v := range want {
		t.Logf("golden %-20s %.17g", k, v)
	}
	golden := goldenSnapshot()
	for k, g := range golden {
		got := want[k]
		tol := 1e-9 * math.Max(1, math.Abs(g))
		if math.Abs(got-g) > tol {
			t.Errorf("%s = %.17g, want %.17g", k, got, g)
		}
	}
}

// goldenSnapshot is the checked-in Simulate result for goldenJobs under
// goldenConfig (regenerate with: go test ./internal/queue -run Golden -v).
func goldenSnapshot() map[string]float64 {
	return map[string]float64{
		"Jobs":                5000,
		"MeanResponse":        2.3949455462176115,
		"ResponseP95":         5.8818889995365451,
		"ResponseP99":         7.4640466020299545,
		"AvgPower":            149.43429958225155,
		"Energy":              494055.19361862115,
		"Duration":            3306.1699690082432,
		"BusyTime":            1405.4273202886791,
		"WakeTime":            740.94999999998993,
		"IdleTime":            1159.7926487195123,
		"Wakes":               1098,
		"MeasuredUtilization": 0.42509227700421803,
		"Residency[idle]":     0,
		"Residency[C6S0(i)]":  728.96676661667573,
		"Residency[C6S3]":     430.82588210283649,
	}
}
