package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
	"sleepscale/internal/workload"
)

// mixedSpace is the default space plus plans that exercise every bound
// branch: no phases, a multi-phase walk, and a delayed single state (τ₁ > 0).
func mixedSpace(mu float64, step float64) policy.Space {
	s := policy.DefaultSpace()
	s.FreqStep = step
	s.Plans = append(s.Plans,
		policy.NoSleep(),
		policy.FullSequence([5]float64{0, 0.5 / mu, 1 / mu, 4 / mu, 20 / mu}),
		policy.DelayedState(power.DeeperSleep, 3/mu),
	)
	return s
}

// qosFamilies returns both QoS families at the ρ_b = 0.8 baseline plus an
// impossible budget of each, which forces the fallback.
func qosFamilies(t *testing.T, mu float64) []policy.QoS {
	t.Helper()
	mean, err := policy.NewMeanResponseQoS(0.8, mu)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := policy.NewPercentileQoS(0.8, mu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	return []policy.QoS{mean, tail,
		policy.MeanResponseQoS{Budget: 1e-6},
		policy.PercentileQoS{Deadline: 1e-6, Quantile: 0.99}}
}

// requireSameAsExhaustive checks Select against the exhaustive reference:
// the same winner with the same metric bits and feasibility, or the same
// error.
func requireSameAsExhaustive(t *testing.T, m *Manager, jobs []queue.Job, rho float64, label string) {
	t.Helper()
	got, err := m.Select(jobs, rho)
	want, _, werr := exhaustiveSelect(m, jobs, rho)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: Select error %v, exhaustive error %v", label, err, werr)
	}
	if err == nil && !sameEvaluation(got, want) {
		t.Fatalf("%s: Select picked %v %+v feasible=%v, exhaustive %v %+v feasible=%v",
			label, got.Policy, got.Metrics, got.Feasible, want.Policy, want.Metrics, want.Feasible)
	}
}

// TestSelectMatchesExhaustive pins the pruned search to the exhaustive one
// across workloads, utilizations, both QoS families (and their fallback),
// plan shapes, frequency exponents and stream lengths.
func TestSelectMatchesExhaustive(t *testing.T) {
	cases := 0
	for si, spec := range workload.Table5() {
		stats, err := workload.NewFittedStats(spec)
		if err != nil {
			t.Fatal(err)
		}
		mu := spec.MaxServiceRate()
		for ri, rho := range []float64{0.05, 0.3, 0.6, 0.9} {
			st, err := stats.AtUtilization(rho)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{10, 200, 2000} {
				jobs := st.Jobs(n, rand.New(rand.NewSource(int64(100*si+10*ri+n))))
				spaces := []policy.Space{policy.DefaultSpace(), mixedSpace(mu, 0.01)}
				betas := []float64{0, 0.5, 1}
				if n == 2000 {
					// The long streams cover the default space at the
					// workload's own β; the short ones cover the rest.
					spaces, betas = spaces[:1], []float64{spec.FreqExponent}
				}
				for _, beta := range betas {
					for pi, space := range spaces {
						for _, qos := range qosFamilies(t, mu) {
							m := &Manager{Profile: power.Xeon(), FreqExponent: beta, Space: space, QoS: qos}
							label := fmt.Sprintf("%s ρ=%g n=%d β=%g space=%d %s", spec.Name, rho, n, beta, pi, qos.Describe())
							requireSameAsExhaustive(t, m, jobs, rho, label)
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d selections matched the exhaustive search", cases)
}

// TestSelectIdealizedMatchesExhaustive does the same for the closed-form
// path. The mixed space's multi-state plans have no closed-form tail, so the
// percentile QoS runs on the default space.
func TestSelectIdealizedMatchesExhaustive(t *testing.T) {
	for _, spec := range workload.Table5() {
		mu := spec.MaxServiceRate()
		for _, rho := range []float64{0.05, 0.3, 0.6, 0.9} {
			for _, qos := range qosFamilies(t, mu) {
				spaces := []policy.Space{policy.DefaultSpace()}
				if !readsTail(qos) {
					spaces = append(spaces, mixedSpace(mu, 0.01))
				}
				for pi, space := range spaces {
					m := &Manager{Profile: power.Xeon(), FreqExponent: 1, Space: space, QoS: qos}
					got, err := m.SelectIdealized(rho*mu, mu)
					want, _, werr := exhaustiveIdealized(m, rho*mu, mu)
					label := fmt.Sprintf("%s ρ=%g space=%d %s", spec.Name, rho, pi, qos.Describe())
					if err != nil || werr != nil {
						t.Fatalf("%s: errors %v / %v", label, err, werr)
					}
					if !sameEvaluation(got, want) {
						t.Fatalf("%s: SelectIdealized picked %v %+v, exhaustive %v %+v",
							label, got.Policy, got.Metrics, want.Policy, want.Metrics)
					}
				}
			}
		}
	}
}

// fuzzGaps and fuzzSizes are the fuzzed streams' alphabets: equal arrivals,
// zero and subnormal sizes, and NaN.
var (
	fuzzGaps  = []float64{0, 0, 1e-9, 0.001, 0.05, 0.3, 1, 2.5, 40, math.NaN()}
	fuzzSizes = []float64{0, 5e-324, 1e-300, 1e-9, 0.004, 0.05, 0.2, 0.9, 3, math.NaN()}
)

// fuzzJobs decodes a stream: two bytes per job, arrivals from offset on.
func fuzzJobs(data []byte, offset float64) []queue.Job {
	var jobs []queue.Job
	at := offset
	for i := 0; i+1 < len(data) && len(jobs) < 64; i += 2 {
		at += fuzzGaps[int(data[i])%len(fuzzGaps)]
		jobs = append(jobs, queue.Job{Arrival: at, Size: fuzzSizes[int(data[i+1])%len(fuzzSizes)]})
	}
	return jobs
}

// FuzzSelectMatchesExhaustive checks the pruned search against the
// exhaustive one on fuzzed streams, and every candidate's bounds against its
// simulated metrics.
func FuzzSelectMatchesExhaustive(f *testing.F) {
	f.Add([]byte{3, 6, 4, 5, 5, 6, 2, 7, 6, 6, 4, 5, 7, 6, 3, 4}, 0.0, 0.5, uint8(0))
	f.Add([]byte{3, 6, 4, 5, 5, 6, 2, 7, 6, 6, 4, 5, 7, 6, 3, 4}, 1e6, 0.5, uint8(2))
	f.Add([]byte{3, 6, 4, 5, 5, 6, 2, 7, 6, 6, 4, 5, 7, 6, 3, 4}, 1e9, 0.3, uint8(6))
	f.Add([]byte{0, 0, 0, 1, 1, 2, 0, 0, 5, 0, 0, 1}, 1e6+0.25, 0.01, uint8(5))
	f.Add([]byte{0, 6, 0, 6, 0, 6, 9, 6, 4, 9, 6, 6}, 7.0, 2.0, uint8(10))
	f.Add([]byte{8, 5, 8, 5, 8, 5, 8, 5}, 0.0, 1e-6, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, offset, budget float64, mode uint8) {
		if !(offset >= 0 && offset <= 1e10) {
			return // the engine starts at 0 and rejects earlier arrivals
		}
		jobs := fuzzJobs(data, offset)
		if len(jobs) == 0 {
			return
		}
		var qos policy.QoS = policy.MeanResponseQoS{Budget: budget}
		if mode&4 != 0 {
			q := 0.95
			if mode&8 != 0 {
				q = 0.99
			}
			qos = policy.PercentileQoS{Deadline: budget, Quantile: q}
		}
		m := &Manager{
			Profile:      power.Xeon(),
			FreqExponent: []float64{0, 0.5, 1, 1}[mode&3],
			Space:        mixedSpace(5, 0.1),
			QoS:          qos,
		}
		rho := 0.3
		requireSameAsExhaustive(t, m, jobs, rho, "fuzz")
		requireBoundsSound(t, m, jobs, rho)
	})
}

// requireBoundsSound checks every candidate's wake-free bounds against what
// Evaluate reports for it: at most the metric, and no power bound at all
// where the power is NaN.
func requireBoundsSound(t *testing.T, m *Manager, jobs []queue.Job, rho float64) {
	t.Helper()
	var wf queue.WakeFree
	for _, f := range m.Space.Frequencies(rho, m.FreqExponent) {
		for i, plan := range m.Space.Plans {
			cfg, err := policy.Policy{Frequency: f, Plan: plan}.Config(m.Profile, m.FreqExponent)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wf.Run(jobs, &cfg)
			}
			b := wf.Bound(&cfg)
			res, err := queue.Simulate(jobs, cfg, queue.Options{})
			if err != nil {
				return // the stream error is Select's to report
			}
			if b.AvgPower > res.AvgPower || b.MeanResponse > res.MeanResponse ||
				(math.IsNaN(res.AvgPower) && !math.IsInf(b.AvgPower, -1)) {
				t.Fatalf("f=%g %s: bound %+v above power %v / mean response %v",
					f, plan.Name, b, res.AvgPower, res.MeanResponse)
			}
		}
	}
}

// TestSelectErrorContract: inputs on which the exhaustive search fails still
// fail, whatever the bounds would prune.
func TestSelectErrorContract(t *testing.T) {
	mu := workload.DNS().MaxServiceRate()
	qos, _ := policy.NewMeanResponseQoS(0.8, mu)
	m := dnsManager(t, qos)
	jobs := dnsJobs(t, 0.3, 200, 21)

	disordered := append([]queue.Job(nil), jobs...)
	disordered[150].Arrival = disordered[10].Arrival
	if _, err := m.Select(disordered, 0.3); !errors.Is(err, queue.ErrOutOfOrder) {
		t.Errorf("out-of-order stream: err = %v, want ErrOutOfOrder", err)
	}
	negative := append([]queue.Job(nil), jobs...)
	negative[100].Size = -1
	if _, err := m.Select(negative, 0.3); err == nil {
		t.Error("negative job size accepted")
	}

	// A multi-state plan has no closed-form tail. Its candidates come after
	// every default one, and the percentile QoS must fail whether or not the
	// search would reach them.
	tail, _ := policy.NewPercentileQoS(0.8, mu, 0.95)
	mt := dnsManager(t, tail)
	if _, err := mt.SelectIdealized(0.3*mu, mu); err != nil {
		t.Fatalf("default space: %v", err)
	}
	mt.Space.Plans = append(mt.Space.Plans, policy.FullSequence([5]float64{0, 1, 2, 3, 4}))
	_, err := mt.SelectIdealized(0.3*mu, mu)
	_, _, werr := exhaustiveIdealized(mt, 0.3*mu, mu)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Errorf("multi-state plan under a percentile QoS: err = %v, exhaustive %v", err, werr)
	}
}

// TestSelectSimulatesFewCandidates pins the work the search saves on
// BenchmarkPolicySelection's fixture: at most a tenth of the grid is
// simulated.
func TestSelectSimulatesFewCandidates(t *testing.T) {
	spec := workload.DNS()
	qos, _ := policy.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	m := dnsManager(t, qos)
	m.Space.FreqStep = 0.02
	jobs := dnsJobs(t, 0.3, 2000, 1)
	best, n, err := m.selectCounted(jobs, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	grid := len(m.Space.Policies(0.3, m.FreqExponent))
	t.Logf("simulated %d of %d candidates; winner %v", n, grid, best.Policy)
	if n < 1 || 10*n > grid {
		t.Errorf("simulated %d of %d candidates, want at most 10%%", n, grid)
	}
}

// TestSelectZeroAllocSteadyState: once its pooled scratch is warm, a
// selection allocates nothing.
func TestSelectZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	mu := workload.DNS().MaxServiceRate()
	for _, qos := range qosFamilies(t, mu)[:2] {
		m := dnsManager(t, qos)
		m.Space.FreqStep = 0.02
		jobs := dnsJobs(t, 0.3, 2000, 1)
		if _, err := m.Select(jobs, 0.3); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := m.Select(jobs, 0.3); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Select allocates %v/op, want 0", qos.Describe(), allocs)
		}
	}
}
