package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
	"sleepscale/internal/workload"
)

func dnsManager(t *testing.T, qos policy.QoS) *Manager {
	t.Helper()
	m := &Manager{
		Profile:      power.Xeon(),
		FreqExponent: 1,
		Space:        policy.DefaultSpace(),
		QoS:          qos,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func dnsJobs(t *testing.T, rho float64, n int, seed int64) []queue.Job {
	t.Helper()
	st, err := workload.NewIdealizedStats(workload.DNS())
	if err != nil {
		t.Fatal(err)
	}
	st, err = st.AtUtilization(rho)
	if err != nil {
		t.Fatal(err)
	}
	return st.Jobs(n, rand.New(rand.NewSource(seed)))
}

func TestManagerValidate(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	bad := []*Manager{
		{FreqExponent: 1, Space: policy.DefaultSpace(), QoS: qos},
		{Profile: power.Xeon(), FreqExponent: 1, Space: policy.DefaultSpace()},
		{Profile: power.Xeon(), FreqExponent: 1, QoS: qos},
		{Profile: power.Xeon(), FreqExponent: 2, Space: policy.DefaultSpace(), QoS: qos},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid manager accepted", i)
		}
	}
}

func TestSelectRejectsEmptyJobs(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	m := dnsManager(t, qos)
	if _, _, err := m.Select(nil, 0.1); !errors.Is(err, ErrNoJobs) {
		t.Errorf("err = %v, want ErrNoJobs", err)
	}
}

func TestEvaluateSinglePolicy(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	m := dnsManager(t, qos)
	jobs := dnsJobs(t, 0.3, 5000, 1)
	ev, err := m.Evaluate(jobs, policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)})
	if err != nil {
		t.Fatal(err)
	}
	// At f=1 and ρ=0.3 the M/M/1 mean response is 1/(µ−λ) ≈ 0.277 s, well
	// inside the 0.97 s budget; power must lie between deep-sleep idle and
	// full active.
	if !ev.Feasible {
		t.Errorf("full-speed policy infeasible: %+v", ev.Metrics)
	}
	if ev.Metrics.AvgPower < 75.5 || ev.Metrics.AvgPower > 250 {
		t.Errorf("power %v outside physical range", ev.Metrics.AvgPower)
	}
	if ev.Metrics.P95Response < ev.Metrics.MeanResponse {
		t.Errorf("P95 %v below mean %v", ev.Metrics.P95Response, ev.Metrics.MeanResponse)
	}
}

// TestSelectLooseBudgetPrefersDeepSleep reproduces the Figure 1(a) loose-
// budget regime: DNS-like at ρ=0.1 with a 20·(1/µ) mean budget — the C6S3
// bowl bottom wins over every other state's optimum.
func TestSelectLooseBudgetPrefersDeepSleep(t *testing.T) {
	if testing.Short() {
		t.Skip("long policy sweep")
	}
	mu := workload.DNS().MaxServiceRate()
	m := dnsManager(t, policy.MeanResponseQoS{Budget: 20 / mu})
	jobs := dnsJobs(t, 0.1, 40000, 2)
	best, all, err := m.Select(jobs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Policy.Plan.Name != "C6S3" {
		t.Errorf("loose-budget winner = %v, want C6S3", best.Policy)
	}
	// The winning frequency sits in the bowl (paper: f ≈ 0.42).
	if best.Policy.Frequency < 0.2 || best.Policy.Frequency > 0.7 {
		t.Errorf("winner frequency %v outside the bowl", best.Policy.Frequency)
	}
	if len(all) == 0 {
		t.Error("no evaluations returned")
	}
}

// TestSelectTightBudgetPrefersC6S0i reproduces the Figure 1(a) tight-budget
// regime: µE[R] ≤ 2 forces fast processing, making C6S0(i) the winner.
func TestSelectTightBudgetPrefersC6S0i(t *testing.T) {
	if testing.Short() {
		t.Skip("long policy sweep")
	}
	mu := workload.DNS().MaxServiceRate()
	m := dnsManager(t, policy.MeanResponseQoS{Budget: 2 / mu})
	jobs := dnsJobs(t, 0.1, 40000, 3)
	best, _, err := m.Select(jobs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Policy.Plan.Name != "C6S0(i)" {
		t.Errorf("tight-budget winner = %v, want C6S0(i)", best.Policy)
	}
}

// TestSelectFallbackWhenNothingFeasible: an impossible budget must still
// return the least-violating policy rather than failing.
func TestSelectFallbackWhenNothingFeasible(t *testing.T) {
	m := dnsManager(t, policy.MeanResponseQoS{Budget: 1e-6})
	jobs := dnsJobs(t, 0.3, 5000, 4)
	best, all, err := m.Select(jobs, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if best.Feasible {
		t.Error("impossible budget marked feasible")
	}
	// The fallback minimizes mean response: no candidate can beat it.
	for _, e := range all {
		if e.Metrics.MeanResponse < best.Metrics.MeanResponse-1e-12 {
			t.Errorf("fallback %v not minimum-violation (found %v)", best.Policy, e.Policy)
			break
		}
	}
}

func TestSelectDeterministicAndParallelConsistent(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	jobs := dnsJobs(t, 0.2, 8000, 5)
	m1 := dnsManager(t, qos)
	m1.Parallelism = 1
	m2 := dnsManager(t, qos)
	m2.Parallelism = 8
	b1, a1, err := m1.Select(jobs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b2, a2, err := m2.Select(jobs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Policy.String() != b2.Policy.String() {
		t.Errorf("parallelism changed the winner: %v vs %v", b1.Policy, b2.Policy)
	}
	if len(a1) != len(a2) {
		t.Fatalf("evaluation counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Metrics != a2[i].Metrics {
			t.Fatalf("evaluation %d differs across parallelism", i)
		}
	}
}

// TestSelectIdealizedAgreesWithSimulation: on an exponential workload the
// idealized (closed-form) and simulated selections must pick the same plan
// and a nearby frequency — observation 3 of §5.1.2.
func TestSelectIdealizedAgreesWithSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long policy sweep")
	}
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	m := dnsManager(t, qos)
	rho := 0.3
	lambda := rho * mu
	idealBest, _, err := m.SelectIdealized(lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	jobs := dnsJobs(t, rho, 60000, 6)
	simBest, _, err := m.Select(jobs, rho)
	if err != nil {
		t.Fatal(err)
	}
	if idealBest.Policy.Plan.Name != simBest.Policy.Plan.Name {
		t.Errorf("plan disagreement: idealized %v vs simulated %v",
			idealBest.Policy, simBest.Policy)
	}
	if math.Abs(idealBest.Policy.Frequency-simBest.Policy.Frequency) > 0.06 {
		t.Errorf("frequency gap too large: idealized %v vs simulated %v",
			idealBest.Policy.Frequency, simBest.Policy.Frequency)
	}
}

// TestSelectIdealizedFigure2HighUtilization reproduces Figure 2 with the
// closed forms: at high utilization the best state for DNS-like jobs is
// C6S0(i) (1 ms wake ≪ 194 ms jobs) while Google-like jobs prefer C3S0(i)
// (1 ms wake hurts 4.2 ms jobs), and C6S3 never wins.
func TestSelectIdealizedFigure2HighUtilization(t *testing.T) {
	rho := 0.7
	for _, tc := range []struct {
		spec workload.Spec
		want string
	}{
		{workload.DNS(), "C6S0(i)"},
		{workload.Google(), "C3S0(i)"},
	} {
		mu := tc.spec.MaxServiceRate()
		qos, err := policy.NewMeanResponseQoS(0.8, mu)
		if err != nil {
			t.Fatal(err)
		}
		m := dnsManager(t, qos)
		best, all, err := m.SelectIdealized(rho*mu, mu)
		if err != nil {
			t.Fatal(err)
		}
		if best.Policy.Plan.Name != tc.want {
			t.Errorf("%s at ρ=%.1f: winner %v, want %s", tc.spec.Name, rho, best.Policy, tc.want)
		}
		for _, e := range all {
			if e.Feasible && e.Policy.Plan.Name == "C6S3" &&
				e.Metrics.AvgPower < best.Metrics.AvgPower {
				t.Errorf("%s: C6S3 beat the winner — should never happen at high ρ", tc.spec.Name)
			}
		}
	}
}

// TestSelectIdealizedLowUtilizationPrefersShallow reproduces the Figure 6
// low-utilization regime: with the ρ_b=0.8 budget at ρ=0.1, C0(i)S0(i) is
// optimal for Google-like jobs (the low-f cubic idle power beats constant
// deep-state power, and C6-class wakes hurt small jobs).
func TestSelectIdealizedLowUtilizationPrefersShallow(t *testing.T) {
	mu := workload.Google().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	m := dnsManager(t, qos)
	best, _, err := m.SelectIdealized(0.1*mu, mu)
	if err != nil {
		t.Fatal(err)
	}
	if best.Policy.Plan.Name != "C0(i)S0(i)" {
		t.Errorf("Google ρ=0.1 winner = %v, want C0(i)S0(i)", best.Policy)
	}
}

func TestSelectIdealizedRejectsBadInput(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	m := dnsManager(t, qos)
	if _, _, err := m.SelectIdealized(0, mu); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, _, err := m.SelectIdealized(mu, mu); err == nil {
		t.Error("λ=µ accepted")
	}
}

// TestSelectIdealizedPercentileQoS: the closed-form tail supports the
// default single-state space; the winner must meet the P95 deadline.
func TestSelectIdealizedPercentileQoS(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, err := policy.NewPercentileQoS(0.8, mu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	m := dnsManager(t, qos)
	best, _, err := m.SelectIdealized(0.3*mu, mu)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible {
		t.Errorf("percentile winner infeasible: %+v", best)
	}
	if best.Metrics.P95Response > qos.Deadline {
		t.Errorf("P95 %v exceeds deadline %v", best.Metrics.P95Response, qos.Deadline)
	}
}

// TestRaceToHaltCostsMore quantifies the §4.2 lesson-1 claim: the joint
// optimum beats race-to-halt (f=1, immediate single state) by a wide margin
// at low utilization.
func TestRaceToHaltCostsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("long policy sweep")
	}
	mu := workload.DNS().MaxServiceRate()
	m := dnsManager(t, policy.MeanResponseQoS{Budget: 20 / mu})
	jobs := dnsJobs(t, 0.1, 40000, 8)
	best, all, err := m.Select(jobs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Find race-to-halt evaluations: f = 1 with any single state.
	worstGap := 0.0
	for _, e := range all {
		if e.Policy.Frequency == 1 {
			gap := e.Metrics.AvgPower / best.Metrics.AvgPower
			if gap > worstGap {
				worstGap = gap
			}
		}
	}
	if worstGap < 1.3 {
		t.Errorf("race-to-halt premium = %.2fx, want ≥ 1.3x (paper: up to 1.5x)", worstGap)
	}
}

// TestSelectMatchesEvaluatePerPolicy pins the pooled-evaluator Select path to
// the public thin-wrapper Evaluate bit-for-bit, one QoS family at a time:
// reusable kernels must not change what any candidate scores. A QoS that
// reads the tail gets all four metrics. MeanResponseQoS scores from response
// moments alone, so its evaluations carry power, mean and feasibility, and
// their P95/P99 read exactly 0.
func TestSelectMatchesEvaluatePerPolicy(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	meanQoS, _ := policy.NewMeanResponseQoS(0.8, mu)
	tailQoS, _ := policy.NewPercentileQoS(0.8, mu, 0.95)
	jobs := dnsJobs(t, 0.3, 3000, 11)
	for _, tc := range []struct {
		name string
		qos  policy.QoS
		tail bool
	}{
		{"percentile", tailQoS, true},
		{"mean", meanQoS, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := dnsManager(t, tc.qos)
			m.Space.FreqStep = 0.1 // keep the per-policy reference sweep quick
			_, evals, err := m.Select(jobs, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if len(evals) == 0 {
				t.Fatal("no evaluations")
			}
			for _, e := range evals {
				ref, err := m.Evaluate(jobs, e.Policy)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.Metrics
				if !tc.tail {
					if e.Metrics.P95Response != 0 || e.Metrics.P99Response != 0 {
						t.Fatalf("policy %v: mean-only Select reported a tail: %+v", e.Policy, e.Metrics)
					}
					want.P95Response, want.P99Response = 0, 0
				}
				if !sameMetricBits(e.Metrics, want) || e.Feasible != ref.Feasible {
					t.Fatalf("policy %v: Select gave %+v, Evaluate gave %+v", e.Policy, e, ref)
				}
			}
		})
	}
}

// sameMetricBits compares two metric sets bit for bit.
func sameMetricBits(a, b policy.Metrics) bool {
	return math.Float64bits(a.AvgPower) == math.Float64bits(b.AvgPower) &&
		math.Float64bits(a.MeanResponse) == math.Float64bits(b.MeanResponse) &&
		math.Float64bits(a.P95Response) == math.Float64bits(b.P95Response) &&
		math.Float64bits(a.P99Response) == math.Float64bits(b.P99Response)
}

// TestMeanOnlySelectLeavesEvaluatorsFull checks that a mean-only Select,
// which scores on pooled evaluators with retention off, hands none of them
// back in that mode: afterwards Manager.Evaluate and a freshly pooled
// evaluator must equal queue.Simulate bit for bit, percentiles included.
func TestMeanOnlySelectLeavesEvaluatorsFull(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	jobs := dnsJobs(t, 0.3, 3000, 11)
	m := dnsManager(t, qos)
	m.Space.FreqStep = 0.1
	for _, workers := range []int{1, 0} {
		m.Parallelism = workers
		best, _, err := m.Select(jobs, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := best.Policy.Config(m.Profile, m.FreqExponent)
		if err != nil {
			t.Fatal(err)
		}
		res, err := queue.Simulate(jobs, cfg, queue.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := policy.Metrics{
			AvgPower: res.AvgPower, MeanResponse: res.MeanResponse,
			P95Response: res.ResponseP95, P99Response: res.ResponseP99,
		}
		if want.P95Response == 0 {
			t.Fatal("reference run has no tail to compare")
		}
		ref, err := m.Evaluate(jobs, best.Policy)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMetricBits(ref.Metrics, want) {
			t.Fatalf("Parallelism %d: Evaluate after Select gave %+v, Simulate gave %+v", workers, ref.Metrics, want)
		}
		ev := queue.GetEvaluator(jobs, queue.Options{})
		sum, err := ev.Evaluate(cfg)
		ev.Release()
		if err != nil {
			t.Fatal(err)
		}
		got := policy.Metrics{
			AvgPower: sum.AvgPower, MeanResponse: sum.MeanResponse,
			P95Response: sum.ResponseP95, P99Response: sum.ResponseP99,
		}
		if !sameMetricBits(got, want) {
			t.Fatalf("Parallelism %d: pooled evaluator after Select gave %+v, Simulate gave %+v", workers, got, want)
		}
	}
}
