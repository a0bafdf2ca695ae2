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
	ev := queue.NewEvaluator(jobs)
	wf := countingWakeFree(t, jobs, plans, beta)
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

// countingWakeFree returns a WakeFree bound to jobs that counts the wakes of
// every plan, resolved on the Xeon profile at f = 1.
func countingWakeFree(t *testing.T, jobs []queue.Job, plans []policy.SleepPlan, beta float64) *queue.WakeFree {
	t.Helper()
	wf := new(queue.WakeFree)
	wf.Reset(jobs)
	for _, plan := range plans {
		cfg, err := policy.Policy{Frequency: 1, Plan: plan}.Config(power.Xeon(), beta)
		if err != nil {
			t.Fatal(err)
		}
		wf.Count(&cfg)
	}
	return wf
}

// referenceBound is WakeFree.Bound as a separate count loop computes it:
// the pass keeps every gap aᵢ − Gᵢ₋₁, cfg's wakes are counted above thr
// afterwards, and the η terms are always subtracted. It also returns the
// count.
func referenceBound(jobs []queue.Job, cfg *queue.Config, thr float64) (queue.Bound, uint64) {
	const u, eta = 0x1p-53, math.SmallestNonzeroFloat64
	none := queue.Bound{AvgPower: math.Inf(-1), MeanResponse: math.Inf(-1)}
	if len(jobs) == 0 {
		return none, 0
	}
	gaps := make([]float64, len(jobs))
	var g, sumResp, sumSvc float64
	for i, j := range jobs {
		svc := cfg.ServiceTime(j.Size)
		gaps[i] = j.Arrival - g
		g = max(g, j.Arrival) + svc
		sumResp += g - j.Arrival
		sumSvc += svc
	}
	pa := cfg.ActivePower
	pmin, pmax := math.Inf(1), pa
	if len(cfg.Phases) == 0 || cfg.Phases[0].EnterAfter != 0 {
		pmin, pmax = cfg.IdlePower, max(pmax, cfg.IdlePower)
	}
	wmin, wmax := math.Inf(1), 0.0
	for _, ph := range cfg.Phases {
		if math.IsNaN(ph.EnterAfter) {
			return none, 0
		}
		pmin, pmax = min(pmin, ph.Power), max(pmax, ph.Power)
		wmin, wmax = min(wmin, ph.WakeLatency), max(wmax, ph.WakeLatency)
	}
	n := float64(len(jobs))
	t := g + wmax
	var c uint64
	var wakes float64
	if len(cfg.Phases) > 0 && cfg.Phases[0].EnterAfter == 0 && wmin > 0 {
		for _, gap := range gaps {
			c += math.Float64bits(thr-gap) >> 63
		}
		wakes = wmin * float64(c)
	}
	b := queue.Bound{
		MeanResponse: (sumResp+wakes)/n - 2*(6*n+11)*u*t - (n+3)*eta,
		AvgPower:     math.Inf(-1),
	}
	k := float64(len(cfg.Phases))
	if g > 0 && (k+3)*n*(pmax+1)*t < math.MaxFloat64/4 {
		p := pa
		if pa >= pmin {
			p = pmin + (sumSvc+wakes)*(pa-pmin)/t
		}
		b.AvgPower = p - 2*(n*(k+9)+11)*u*pmax*t/g - 2*(n*(k+3)+3)*eta/g
	}
	for _, x := range []*float64{&b.AvgPower, &b.MeanResponse} {
		if math.IsNaN(*x) {
			*x = math.Inf(-1)
		}
	}
	return b, c
}

// requireBoundMatchesReference checks the bound of every plan at every grid
// frequency against referenceBound at the threshold the pass counted above,
// bit for bit. It returns how many of the bounds carry a wake term.
func requireBoundMatchesReference(t *testing.T, jobs []queue.Job, plans []policy.SleepPlan, beta float64, label string) int {
	t.Helper()
	wf := countingWakeFree(t, jobs, plans, beta)
	wakeful := 0
	space := policy.Space{Plans: plans, FreqStep: 0.05, MinFreq: 0.05}
	for _, f := range space.Frequencies(0, beta) {
		for i, plan := range plans {
			cfg, err := policy.Policy{Frequency: f, Plan: plan}.Config(power.Xeon(), beta)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wf.Run(jobs, &cfg)
			}
			thr, counted := wf.WakeThreshold(&cfg)
			got := wf.Bound(&cfg)
			want, c := referenceBound(jobs, &cfg, thr)
			if math.Float64bits(got.AvgPower) != math.Float64bits(want.AvgPower) ||
				math.Float64bits(got.MeanResponse) != math.Float64bits(want.MeanResponse) {
				t.Fatalf("%s f=%g β=%g %s: bound %+v, reference %+v", label, f, beta, plan.Name, got, want)
			}
			if counted && c > 0 {
				wakeful++
			}
		}
	}
	return wakeful
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
					requireWakeful(t, jobs, plans, beta, spec.Name)
				}
				for _, offset := range []float64{1e6, 1e9} {
					shifted := make([]queue.Job, len(jobs))
					for i, j := range jobs {
						shifted[i] = queue.Job{Arrival: j.Arrival + offset, Size: j.Size}
					}
					requireBoundBelow(t, shifted, plans, spec.FreqExponent, "offset")
					requireWakeful(t, shifted, plans, spec.FreqExponent, "offset")
				}
			}
		}
	}
	// Equal arrivals, zero and subnormal sizes.
	edge := []queue.Job{{0, 0}, {0, 5e-324}, {0, 0}, {1e-9, 0}, {1e-9, 1e-300}, {3, 0}, {3, 0.2}}
	requireBoundBelow(t, edge, boundPlans(5), 1, "edge")
	requireWakeful(t, edge, boundPlans(5), 1, "edge")
	// Every job arrives at 0, so no gap can pay a wake.
	empty := []queue.Job{{0, 0}, {0, 0}}
	requireBoundBelow(t, empty, boundPlans(5), 1, "empty-duration")
	requireBoundMatchesReference(t, empty, boundPlans(5), 1, "empty-duration")
}

// requireWakeful checks the stream's bounds against the reference and
// requires at least one of them to carry a wake term, so that a threshold
// that counts nothing fails rather than passing on weaker bounds.
func requireWakeful(t *testing.T, jobs []queue.Job, plans []policy.SleepPlan, beta float64, label string) {
	t.Helper()
	if requireBoundMatchesReference(t, jobs, plans, beta, label) == 0 {
		t.Fatalf("%s n=%d β=%g: no bound counts a wake", label, len(jobs), beta)
	}
}

// TestWakeFreeBoundCountsPastFour: a pass counts four wake thresholds at a
// time, so six distinct w_max take two passes. Every bound must still match
// the reference, count wakes, and stay below what Evaluate reports.
func TestWakeFreeBoundCountsPastFour(t *testing.T) {
	stats, err := workload.NewFittedStats(workload.DNS())
	if err != nil {
		t.Fatal(err)
	}
	if stats, err = stats.AtUtilization(0.3); err != nil {
		t.Fatal(err)
	}
	jobs := stats.Jobs(500, rand.New(rand.NewSource(4)))
	var cfgs []queue.Config
	for _, wake := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1} {
		cfgs = append(cfgs, queue.Config{Frequency: 0.7, FreqExponent: 1, ActivePower: 150, IdlePower: 150,
			Phases: []queue.SleepPhase{{Name: "sleep", Power: 30, WakeLatency: wake}}})
	}
	var wf queue.WakeFree
	wf.Reset(jobs)
	for i := range cfgs {
		wf.Count(&cfgs[i])
	}
	wf.Run(jobs, &cfgs[0])
	ev := queue.NewEvaluator(jobs)
	for i := range cfgs {
		cfg := &cfgs[i]
		thr, counted := wf.WakeThreshold(cfg)
		got := wf.Bound(cfg)
		want, c := referenceBound(jobs, cfg, thr)
		if !counted || c == 0 {
			t.Fatalf("w_max %g: counted %v, %d wakes", cfg.Phases[0].WakeLatency, counted, c)
		}
		if math.Float64bits(got.AvgPower) != math.Float64bits(want.AvgPower) ||
			math.Float64bits(got.MeanResponse) != math.Float64bits(want.MeanResponse) {
			t.Fatalf("w_max %g: bound %+v, reference %+v", cfg.Phases[0].WakeLatency, got, want)
		}
		sum, err := ev.Evaluate(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.AvgPower > sum.AvgPower || got.MeanResponse > sum.MeanResponse {
			t.Fatalf("w_max %g: bound %+v above power %v / mean response %v",
				cfg.Phases[0].WakeLatency, got, sum.AvgPower, sum.MeanResponse)
		}
	}
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

// fuzzGaps and fuzzSizes are the fuzzed streams' alphabets: equal arrivals,
// zero and subnormal sizes, and NaN.
var (
	fuzzGaps  = []float64{0, 0, 1e-9, 0.001, 0.05, 0.3, 1, 2.5, 40, math.NaN()}
	fuzzSizes = []float64{0, 5e-324, 1e-300, 1e-9, 0.004, 0.05, 0.2, 0.9, 3, math.NaN()}
)

// FuzzWakeFreeBound checks the bound on fuzzed streams, for every plan of
// boundPlans at β ∈ {0, 0.5, 1}: bit-equal to referenceBound and, when the
// engine accepts the stream, at most what it reports. Two bytes make a job,
// its arrival counted from offset.
func FuzzWakeFreeBound(f *testing.F) {
	f.Add([]byte{3, 6, 4, 5, 5, 6, 2, 7, 6, 6, 4, 5, 7, 6, 3, 4}, 0.0)
	f.Add([]byte{3, 6, 4, 5, 5, 6, 2, 7, 6, 6, 4, 5, 7, 6, 3, 4}, 1e9)
	f.Add([]byte{0, 0, 0, 1, 1, 2, 0, 0, 5, 0, 0, 1}, 1e6+0.25)
	f.Add([]byte{0, 6, 0, 6, 0, 6, 9, 6, 4, 9, 6, 6}, 7.0)
	f.Add([]byte{8, 1, 8, 2, 8, 1, 6, 8}, 1e10)
	f.Fuzz(func(t *testing.T, data []byte, offset float64) {
		if !(offset >= 0 && offset <= 1e10) {
			return // the engine starts at 0 and rejects earlier arrivals
		}
		var jobs []queue.Job
		at := offset
		for i := 0; i+1 < len(data) && len(jobs) < 64; i += 2 {
			at += fuzzGaps[int(data[i])%len(fuzzGaps)]
			jobs = append(jobs, queue.Job{Arrival: at, Size: fuzzSizes[int(data[i+1])%len(fuzzSizes)]})
		}
		if len(jobs) == 0 {
			return
		}
		plans := boundPlans(5)
		probe := queue.Config{Frequency: 1, FreqExponent: 1}
		_, err := queue.Simulate(jobs, probe)
		for _, beta := range []float64{0, 0.5, 1} {
			requireBoundMatchesReference(t, jobs, plans, beta, "fuzz")
			if err == nil {
				requireBoundBelow(t, jobs, plans, beta, "fuzz")
			}
		}
	})
}
