package core

import (
	"math"
	"testing"
	"testing/quick"

	"sleepscale/internal/policy"
	"sleepscale/internal/workload"
)

func TestSelectIdealizedRefinedBeatsGrid(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	// A coarse grid leaves room for the continuous refiner to improve.
	m := dnsManager(t, qos)
	m.Space.FreqStep = 0.1
	for _, rho := range []float64{0.1, 0.3, 0.5} {
		grid, err := m.SelectIdealized(rho*mu, mu)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := m.SelectIdealizedRefined(rho*mu, mu)
		if err != nil {
			t.Fatal(err)
		}
		if refined.Metrics.AvgPower > grid.Metrics.AvgPower+1e-9 {
			t.Errorf("ρ=%.1f: refined power %.4f above grid %.4f",
				rho, refined.Metrics.AvgPower, grid.Metrics.AvgPower)
		}
		if !refined.Feasible {
			t.Errorf("ρ=%.1f: refined selection infeasible", rho)
		}
	}
}

func TestRefinedMatchesFineGrid(t *testing.T) {
	// Against a very fine grid the refiner should land within one step.
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	fine := dnsManager(t, qos)
	fine.Space.FreqStep = 0.002
	coarse := dnsManager(t, qos)
	coarse.Space.FreqStep = 0.05
	rho := 0.25
	fineBest, err := fine.SelectIdealized(rho*mu, mu)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := coarse.SelectIdealizedRefined(rho*mu, mu)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Policy.Plan.Name != fineBest.Policy.Plan.Name {
		t.Errorf("plan %s != fine grid %s", refined.Policy.Plan.Name, fineBest.Policy.Plan.Name)
	}
	if math.Abs(refined.Policy.Frequency-fineBest.Policy.Frequency) > 0.01 {
		t.Errorf("frequency %.4f vs fine grid %.4f", refined.Policy.Frequency, fineBest.Policy.Frequency)
	}
	if refined.Metrics.AvgPower > fineBest.Metrics.AvgPower+1e-6 {
		t.Errorf("refined power %.4f above fine grid %.4f",
			refined.Metrics.AvgPower, fineBest.Metrics.AvgPower)
	}
}

func TestRefinedPercentileQoS(t *testing.T) {
	mu := workload.Google().MaxServiceRate()
	qos, err := policy.NewPercentileQoS(0.8, mu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	m := dnsManager(t, qos)
	m.Space.FreqStep = 0.05
	refined, err := m.SelectIdealizedRefined(0.3*mu, mu)
	if err != nil {
		t.Fatal(err)
	}
	if !refined.Feasible {
		t.Fatalf("refined percentile selection infeasible: %+v", refined)
	}
	if refined.Metrics.P95Response > qos.Deadline {
		t.Errorf("P95 %v exceeds deadline %v", refined.Metrics.P95Response, qos.Deadline)
	}
}

// Property: across utilizations, the refined selection is always feasible
// and never worse than the grid winner.
func TestRefinedDominatesGridProperty(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	m := dnsManager(t, qos)
	m.Space.FreqStep = 0.05
	f := func(rRaw uint8) bool {
		rho := 0.05 + float64(rRaw)/255*0.7
		grid, err := m.SelectIdealized(rho*mu, mu)
		if err != nil {
			return false
		}
		refined, err := m.SelectIdealizedRefined(rho*mu, mu)
		if err != nil {
			return false
		}
		return refined.Metrics.AvgPower <= grid.Metrics.AvgPower+1e-9 && refined.Feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRefinedRejectsBadInput(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	m := dnsManager(t, qos)
	if _, err := m.SelectIdealizedRefined(0, mu); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, err := m.SelectIdealizedRefined(mu, mu); err == nil {
		t.Error("λ=µ accepted")
	}
}
