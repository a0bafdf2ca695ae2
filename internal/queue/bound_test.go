package queue_test

import (
	"math"
	"math/rand"
	"testing"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
	"sleepscale/internal/workload"
)

// boundPlans are the default plans plus no phases, a multi-phase walk and a
// delayed state (τ₁ > 0), scaled to service rate mu.
func boundPlans(mu float64) []policy.SleepPlan {
	return append(policy.DefaultPlans(),
		policy.NoSleep(),
		policy.FullSequence([5]float64{0, 0.5 / mu, 1 / mu, 4 / mu, 20 / mu}),
		policy.DelayedState(power.DeeperSleep, 3/mu),
	)
}

// requireBoundBelow checks the wake-free bound of every plan at every grid
// frequency against Evaluate over jobs. It returns how many bounds were
// finite.
func requireBoundBelow(t *testing.T, jobs []queue.Job, plans []policy.SleepPlan, beta float64, label string) int {
	t.Helper()
	prof := power.Xeon()
	ev := queue.NewEvaluator(jobs, queue.Options{})
	var wf queue.WakeFree
	finite := 0
	space := policy.Space{Plans: plans, FreqStep: 0.05, MinFreq: 0.05}
	for _, f := range space.Frequencies(0, beta) {
		for i, plan := range plans {
			cfg, err := policy.Policy{Frequency: f, Plan: plan}.Config(prof, beta)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wf.Run(jobs, &cfg)
			}
			b := wf.Bound(&cfg)
			sum, err := ev.Evaluate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if b.AvgPower > sum.AvgPower || b.MeanResponse > sum.MeanResponse {
				t.Fatalf("%s f=%g %s: bound %+v above power %v / mean response %v",
					label, f, plan.Name, b, sum.AvgPower, sum.MeanResponse)
			}
			if !math.IsInf(b.AvgPower, -1) && !math.IsInf(b.MeanResponse, -1) {
				finite++
			}
		}
	}
	return finite
}

// TestWakeFreeBoundIsSound checks that a bound less its slack never exceeds
// the metric Evaluate reports, for every candidate of the policy manager's
// equivalence streams and of streams at large time offsets.
func TestWakeFreeBoundIsSound(t *testing.T) {
	for si, spec := range workload.Table5() {
		stats, err := workload.NewFittedStats(spec)
		if err != nil {
			t.Fatal(err)
		}
		plans := boundPlans(spec.MaxServiceRate())
		for ri, rho := range []float64{0.05, 0.3, 0.6, 0.9} {
			st, err := stats.AtUtilization(rho)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{10, 200, 2000} {
				jobs := st.Jobs(n, rand.New(rand.NewSource(int64(100*si+10*ri+n))))
				for _, beta := range []float64{0, 0.5, 1} {
					if requireBoundBelow(t, jobs, plans, beta, spec.Name) == 0 {
						t.Fatalf("%s ρ=%g n=%d β=%g: no finite bound", spec.Name, rho, n, beta)
					}
				}
				for _, offset := range []float64{1e6, 1e9} {
					shifted := make([]queue.Job, len(jobs))
					for i, j := range jobs {
						shifted[i] = queue.Job{Arrival: j.Arrival + offset, Size: j.Size}
					}
					requireBoundBelow(t, shifted, plans, spec.FreqExponent, "offset")
				}
			}
		}
	}
	// Equal arrivals, zero and subnormal sizes.
	edge := []queue.Job{{0, 0}, {0, 5e-324}, {0, 0}, {1e-9, 0}, {1e-9, 1e-300}, {3, 0}, {3, 0.2}}
	requireBoundBelow(t, edge, boundPlans(5), 1, "edge")
	requireBoundBelow(t, []queue.Job{{0, 0}, {0, 0}}, boundPlans(5), 1, "empty-duration")
}

// TestWakeFreeBoundMismatchedSpeed: a configuration at another speed than the
// pass gets no bound.
func TestWakeFreeBoundMismatchedSpeed(t *testing.T) {
	jobs := []queue.Job{{1, 0.2}, {2, 0.3}}
	var wf queue.WakeFree
	slow := queue.Config{Frequency: 0.5, FreqExponent: 1, ActivePower: 100, IdlePower: 100}
	fast := slow
	fast.Frequency = 1
	wf.Run(jobs, &slow)
	if b := wf.Bound(&fast); !math.IsInf(b.AvgPower, -1) || !math.IsInf(b.MeanResponse, -1) {
		t.Errorf("bound across speeds = %+v, want −Inf", b)
	}
	if b := wf.Bound(&slow); math.IsInf(b.AvgPower, -1) || math.IsInf(b.MeanResponse, -1) {
		t.Errorf("bound at the pass's speed = %+v, want finite", b)
	}
}
